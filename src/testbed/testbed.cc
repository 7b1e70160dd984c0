#include "testbed/testbed.h"

#include <algorithm>

#include "util/assert.h"
#include "util/units.h"
#include "workload/kv_driver.h"

namespace sdf::testbed {

StorageStack
BuildStorageStack(sim::Simulator &sim, const StackConfig &cfg)
{
    StorageStack out;
    if (cfg.backend == Backend::kBaiduSdf) {
        core::SdfConfig dc = core::BaiduSdfConfig(cfg.capacity_scale);
        if (cfg.tune_sdf) cfg.tune_sdf(dc);
        out.sdf = std::make_unique<core::SdfDevice>(sim, dc);
        out.layer = std::make_unique<blocklayer::BlockLayer>(sim, *out.sdf,
                                                             cfg.layer);
        if (cfg.with_io_stack) {
            out.io_stack = std::make_unique<host::IoStack>(
                sim, host::SdfUserStackSpec());
        }
        out.storage = std::make_unique<kv::BlockPatchStorage>(
            *out.layer, out.io_stack.get());
        return out;
    }

    const ssd::ConventionalSsdConfig sc =
        cfg.backend == Backend::kHuaweiGen3
            ? ssd::HuaweiGen3Config(cfg.capacity_scale)
            : ssd::Intel320Config(cfg.capacity_scale);
    out.ssd = std::make_unique<ssd::ConventionalSsd>(sim, sc);
    if (cfg.with_io_stack) {
        out.io_stack =
            std::make_unique<host::IoStack>(sim, host::KernelIoStackSpec());
    }
    out.storage = std::make_unique<kv::SsdPatchStorage>(
        *out.ssd, 8 * util::kMiB, out.io_stack.get());
    return out;
}

KvStack
BuildKvStack(sim::Simulator &sim, const KvStackConfig &cfg,
             kv::StoreJournal *journal)
{
    KvStack out;
    out.storage = BuildStorageStack(sim, cfg.stack);
    out.store = std::make_unique<kv::Store>(sim, *out.storage.storage,
                                            cfg.store, journal);
    return out;
}

KvTestbed::KvTestbed(Backend kind, uint32_t slice_count, uint32_t clients,
                     double capacity_scale, kv::SliceConfig slice_cfg,
                     obs::Hub *hub)
    : hub_bind_(sim_, hub != nullptr ? hub : obs::GlobalObs().hub()),
      net_(sim_, clients)
{
    KvStackConfig kc;
    kc.stack.backend = kind;
    kc.stack.capacity_scale = capacity_scale;
    kc.store.slice_count = slice_count;
    kc.store.slice = slice_cfg;
    kv_ = BuildKvStack(sim_, kc);
}

std::vector<std::vector<uint64_t>>
KvTestbed::Preload(uint64_t bytes_per_slice, uint32_t value_size)
{
    auto keys =
        workload::PreloadSlices(SlicePtrs(), bytes_per_slice, value_size);
    if (ssd_device() != nullptr) {
        const double fill =
            static_cast<double>(bytes_per_slice) * store().slice_count() /
            static_cast<double>(ssd_device()->user_capacity());
        ssd_device()->PreconditionFill(std::min(fill * 1.02, 1.0));
    }
    return keys;
}

std::vector<kv::Slice *>
KvTestbed::SlicePtrs()
{
    std::vector<kv::Slice *> out;
    out.reserve(store().slice_count());
    for (uint32_t s = 0; s < store().slice_count(); ++s) {
        out.push_back(&store().slice(s));
    }
    return out;
}

}  // namespace sdf::testbed
