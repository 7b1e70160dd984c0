#include "nand/flash_array.h"

#include <algorithm>

#include "util/assert.h"

namespace sdf::nand {

FlashArray::FlashArray(sim::Simulator &sim, const FlashArrayConfig &config)
    : sim_(sim), config_(config)
{
    config_.geometry.Validate();
    util::Rng seeder(config_.seed);
    channels_.reserve(config_.geometry.channels);
    for (uint32_t c = 0; c < config_.geometry.channels; ++c) {
        channels_.push_back(std::make_unique<Channel>(
            sim, config_.geometry, config_.timing, config_.errors,
            seeder.Fork(), config_.store_payloads,
            config_.ecc_correctable_bits));
    }

    // Factory defect injection: mark a random sprinkle of blocks bad.
    if (config_.factory_bad_per_mille > 0.0) {
        util::Rng defects(config_.seed ^ 0xbadb10c5ULL);
        const double p = config_.factory_bad_per_mille / 1000.0;
        for (auto &ch : channels_) {
            for (uint32_t pl = 0; pl < config_.geometry.PlanesPerChannel(); ++pl) {
                for (uint32_t b = 0; b < config_.geometry.blocks_per_plane; ++b) {
                    if (defects.NextBool(p)) ch->MarkBad(BlockAddr{pl, b});
                }
            }
        }
    }
}

ChannelStats
FlashArray::TotalStats() const
{
    ChannelStats total;
    for (const auto &ch : channels_) {
        const ChannelStats &s = ch->stats();
        total.reads += s.reads;
        total.programs += s.programs;
        total.erases += s.erases;
        total.read_bytes += s.read_bytes;
        total.programmed_bytes += s.programmed_bytes;
        total.corrected_bit_errors += s.corrected_bit_errors;
        total.uncorrectable_reads += s.uncorrectable_reads;
        total.blocks_gone_bad += s.blocks_gone_bad;
        total.retry_reads += s.retry_reads;
        total.transient_errors += s.transient_errors;
    }
    return total;
}

double
FlashArray::RawReadBandwidth() const
{
    const Geometry &g = config_.geometry;
    const TimingSpec &t = config_.timing;
    // With >= 2 planes, array reads hide behind bus transfers: bus-limited.
    const double per_page_sec = util::NsToSec(t.BusTime(g.page_size));
    const double per_channel = static_cast<double>(g.page_size) / per_page_sec;
    return per_channel * g.channels;
}

double
FlashArray::RawWriteBandwidth() const
{
    const Geometry &g = config_.geometry;
    const TimingSpec &t = config_.timing;
    const uint32_t planes = g.PlanesPerChannel();
    // Steady state: each batch of `planes` pages costs max(bus-in for the
    // batch, one program time) once the pipeline is full.
    const double bus_batch =
        util::NsToSec(t.BusTime(g.page_size)) * planes;
    const double prog = util::NsToSec(t.program_page);
    const double batch_sec = std::max(bus_batch, prog);
    const double per_channel =
        static_cast<double>(g.page_size) * planes / batch_sec;
    return per_channel * g.channels;
}

}  // namespace sdf::nand
