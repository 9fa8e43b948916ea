#include "random.hh"

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <utility>

#include "logging.hh"

namespace mixtlb
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The normaliser sum over [1, n]: a direct sum for small n; two-point
 * interpolation keeps construction cheap for big item counts while
 * preserving the distribution shape.
 */
double
zetaSum(std::uint64_t n, double theta)
{
    double sum = 0.0;
    if (n <= 1'000'000) {
        for (std::uint64_t i = 1; i <= n; i++)
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        return sum;
    }
    for (std::uint64_t i = 1; i <= 1'000'000; i++)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    // Integral tail approximation of sum_{1e6+1}^{n} x^-theta.
    double a = 1e6, b = static_cast<double>(n);
    if (theta == 1.0)
        sum += std::log(b / a);
    else
        sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta))
               / (1.0 - theta);
    return sum;
}

} // anonymous namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    panic_if(bound == 0, "nextBounded(0)");
    // Multiply-shift bounded generation; bias is negligible for our use.
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(next()) * bound) >> 64);
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    panic_if(lo > hi, "nextRange(%llu, %llu)",
             (unsigned long long)lo, (unsigned long long)hi);
    return lo + nextBounded(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    return nextDouble() < p;
}

double
ZipfSampler::zeta(std::uint64_t n, double theta)
{
    // A pure function of (n, theta) that costs up to 1M pow() calls, and
    // every machine with a Zipf workload builds a sampler: compute each
    // pair once per process. Sweeps build samplers on pool workers, so
    // the table is shared under a lock; the sum runs outside it. The
    // key holds theta's bits, which order even a NaN.
    static std::mutex lock;
    static std::map<std::pair<std::uint64_t, std::uint64_t>, double> memo;
    const auto key = std::make_pair(n, std::bit_cast<std::uint64_t>(theta));
    {
        std::lock_guard<std::mutex> guard(lock);
        if (auto it = memo.find(key); it != memo.end())
            return it->second;
    }
    const double sum = zetaSum(n, theta);
    std::lock_guard<std::mutex> guard(lock);
    memo.emplace(key, sum);
    return sum;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed)
{
    panic_if(n == 0, "ZipfSampler over empty domain");
    zetan_ = zeta(n, theta);
    const double zeta2 = zeta(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta))
           / (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfSampler::sample()
{
    const double u = rng_.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_)
        * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank >= n_ ? n_ - 1 : rank;
}

} // namespace mixtlb
