#ifndef MIXTLB_COMMON_OPS_HH
#define MIXTLB_COMMON_OPS_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace fx
{

constexpr unsigned WordBits = 64;

template <typename T, unsigned N>
struct InlineVec
{
    void push_back(const T &value);
};

struct Stats
{
    void addScalar(const char *name, double value);
};

inline std::uint64_t
maskedShift(std::uint64_t value, unsigned n)
{
    return value << (n & 63);
}

inline std::uint64_t
constShift(std::uint64_t value)
{
    return value >> (WordBits - 32);
}

struct Ledger
{
    std::unordered_map<int, int> cells_;
    InlineVec<int, 4> scratch_;

    // mixcheck: hot
    void record(int value)
    {
        scratch_.push_back(value);
    }

    void report(Stats &stats)
    {
        std::vector<int> keys;
        keys.reserve(cells_.size());
        for (const auto &kv : cells_)
            keys.push_back(kv.first);
        std::sort(keys.begin(), keys.end());
        for (int key : keys)
            stats.addScalar("cells", cells_.at(key));
    }
};

} // namespace fx

#endif // MIXTLB_COMMON_OPS_HH
