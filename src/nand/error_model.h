/**
 * @file
 * Flash reliability model: raw bit errors that grow with wear, and
 * wear-out failures past rated endurance.
 *
 * The paper's SDF relies on per-chip BCH ECC (plus system-level replication)
 * instead of inter-channel parity; this model gives the ECC something to do
 * in tests and lets fault-injection suites exercise the bad-block paths.
 */
#ifndef SDF_NAND_ERROR_MODEL_H
#define SDF_NAND_ERROR_MODEL_H

#include <cstdint>

#include "util/rng.h"

namespace sdf::nand {

/** Parameters and sampling for flash bit errors and wear-out. */
struct ErrorModel
{
    /** Master switch; when false all operations succeed error-free. */
    bool enabled = false;

    /** Raw bit error rate of a fresh block. */
    double base_rber = 2e-8;

    /** RBER multiplier at rated endurance (quadratic growth in between). */
    double wear_rber_factor = 50.0;

    /** Rated program/erase cycles for 25 nm MLC. */
    uint32_t endurance_cycles = 3000;

    /**
     * Per-erase probability of permanent failure once past endurance,
     * scaled by how far past endurance the block is.
     */
    double wearout_fail_scale = 0.02;

    /** Raw bit error rate for a block with @p erase_count cycles. */
    double RberAt(uint32_t erase_count) const;

    /**
     * Sample the number of raw bit errors in a page of @p page_bytes read
     * from a block with @p erase_count cycles. @p rber_scale multiplies the
     * block's RBER (1.0 = nominal; fault injection elevates it per block).
     * The count never exceeds the page's bit count; a NaN rate, or one too
     * large to sample, yields that count.
     */
    uint32_t SampleBitErrors(util::Rng &rng, uint32_t page_bytes,
                             uint32_t erase_count,
                             double rber_scale = 1.0) const;

    /** Sample whether an erase at @p erase_count cycles bricks the block. */
    bool SampleWearOut(util::Rng &rng, uint32_t erase_count) const;
};

}  // namespace sdf::nand

#endif  // SDF_NAND_ERROR_MODEL_H
