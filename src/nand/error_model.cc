#include "nand/error_model.h"

#include <cmath>

namespace sdf::nand {

double
ErrorModel::RberAt(uint32_t erase_count) const
{
    const double wear = static_cast<double>(erase_count) /
                        static_cast<double>(endurance_cycles);
    return base_rber * (1.0 + wear_rber_factor * wear * wear);
}

uint32_t
ErrorModel::SampleBitErrors(util::Rng &rng, uint32_t page_bytes,
                            uint32_t erase_count, double rber_scale) const
{
    if (!enabled) return 0;
    const double bits = 8.0 * page_bytes;
    const double lambda = bits * RberAt(erase_count) * rber_scale;
    // Poisson approximation of Binomial(bits, rber); rber is tiny.
    if (lambda <= 0.0) return 0;
    if (lambda < 30.0) {
        // Knuth's algorithm.
        const double limit = std::exp(-lambda);
        double p = 1.0;
        uint32_t k = 0;
        do {
            ++k;
            p *= rng.NextDouble();
        } while (p > limit);
        return k - 1;
    }
    // Gaussian approximation for large lambda (deep wear-out).
    const double u1 = rng.NextDouble();
    const double u2 = rng.NextDouble();
    const double z =
        std::sqrt(-2.0 * std::log(u1 + 1e-300)) * std::cos(6.283185307179586 * u2);
    const double v = lambda + std::sqrt(lambda) * z;
    // A page cannot hold more errors than bits. The cap also keeps the
    // cast defined for a huge or NaN rate, which reads as all bits bad.
    if (v <= 0) return 0;
    return v < bits ? static_cast<uint32_t>(v) : 8 * page_bytes;
}

bool
ErrorModel::SampleWearOut(util::Rng &rng, uint32_t erase_count) const
{
    if (!enabled || erase_count <= endurance_cycles) return false;
    const double over = static_cast<double>(erase_count - endurance_cycles) /
                        static_cast<double>(endurance_cycles);
    return rng.NextBool(wearout_fail_scale * over);
}

}  // namespace sdf::nand
