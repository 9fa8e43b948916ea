/**
 * @file
 * A fixed-capacity, allocation-free vector for the simulation hot
 * path. `pt::WalkResult` carries its memory-access lists and decoded
 * PTE line in these instead of `std::vector`, so a page-table walk
 * (and the nested 2-D walk that composes up to ~44 accesses) performs
 * zero heap allocations.
 *
 * The capacity is an architectural bound, not a heuristic: exceeding
 * it is a modelling bug and traps fatally via MIX_EXPECT even in
 * release builds. Only the first size() elements are ever read,
 * copied, or compared. The storage is raw bytes: a slot holds an
 * object only once push_back/assign/append constructs one there, so
 * constructing a large-capacity result costs nothing even when T has
 * default member initialisers. That is sound only for element types
 * that need no destructor and may be copied bytewise, which the
 * static_assert below enforces.
 */

#ifndef MIXTLB_COMMON_INLINE_VEC_HH
#define MIXTLB_COMMON_INLINE_VEC_HH

#include <cstddef>
#include <memory>
#include <type_traits>

#include "common/contracts.hh"

namespace mixtlb
{

template <typename T, std::size_t N>
class InlineVec
{
    static_assert(std::is_trivially_copyable_v<T>
                      && std::is_trivially_destructible_v<T>,
                  "InlineVec leaves slots past size() unconstructed and "
                  "never destroys elements");

  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    // Not `= default`: value-initialising a defaulted constructor would
    // zero the whole storage array.
    InlineVec() noexcept {}

    InlineVec(const InlineVec &other) { assignFrom(other); }

    InlineVec &
    operator=(const InlineVec &other)
    {
        if (this != &other)
            assignFrom(other);
        return *this;
    }

    void
    push_back(const T &value)
    {
        MIX_EXPECT(size_ < N,
                   "InlineVec overflow: capacity %zu exceeded "
                   "(architectural bound violated)",
                   N);
        std::construct_at(data() + size_++, value);
    }

    /** Resize to @p count copies of @p value (std::vector::assign). */
    void
    assign(std::size_t count, const T &value)
    {
        MIX_EXPECT(count <= N,
                   "InlineVec overflow: assign(%zu) exceeds capacity "
                   "%zu",
                   count, N);
        for (std::size_t i = 0; i < count; i++)
            std::construct_at(data() + i, value);
        size_ = count;
    }

    /** Append the range [first, last). */
    void
    append(const T *first, const T *last)
    {
        const auto count = static_cast<std::size_t>(last - first);
        MIX_EXPECT(size_ + count <= N,
                   "InlineVec overflow: appending %zu to %zu exceeds "
                   "capacity %zu",
                   count, size_, N);
        for (std::size_t i = 0; i < count; i++)
            std::construct_at(data() + size_ + i, first[i]);
        size_ += count;
    }

    void clear() { size_ = 0; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }

    T *data() { return reinterpret_cast<T *>(storage_); }
    const T *data() const { return reinterpret_cast<const T *>(storage_); }

    iterator begin() { return data(); }
    iterator end() { return data() + size_; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    static constexpr std::size_t capacity() { return N; }

  private:
    void
    assignFrom(const InlineVec &other)
    {
        for (std::size_t i = 0; i < other.size_; i++)
            std::construct_at(data() + i, other[i]);
        size_ = other.size_;
    }

    alignas(T) std::byte storage_[N * sizeof(T)];
    std::size_t size_ = 0;
};

} // namespace mixtlb

#endif // MIXTLB_COMMON_INLINE_VEC_HH
