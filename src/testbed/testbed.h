/**
 * @file
 * The one place that knows how to assemble a storage stack.
 *
 * Every consumer — the bench suite, the fault campaign, sdfsim, the
 * examples, and each cluster StorageNode — used to hand-wire device +
 * block layer + I/O stack + patch storage + slices with small copy-paste
 * variations. BuildStorageStack/BuildKvStack centralise that wiring
 * behind a config struct; KvTestbed remains the convenient all-in-one
 * (simulator + stack + store + network) used by the figure benches.
 *
 * Backends:
 *  - kBaiduSdf: SdfDevice -> BlockLayer -> BlockPatchStorage (the paper's
 *    stack, user-space I/O costs);
 *  - kHuaweiGen3 / kIntel320: ConventionalSsd -> kernel IoStack ->
 *    SsdPatchStorage, a flat extent allocator. The SSD's FTL hides its
 *    channels, so the block layer, which schedules exposed channels, runs
 *    on SDF only (paper §2.4).
 */
#ifndef SDF_TESTBED_TESTBED_H
#define SDF_TESTBED_TESTBED_H

#include <functional>
#include <memory>
#include <vector>

#include "blocklayer/block_layer.h"
#include "host/io_stack.h"
#include "kv/patch_storage.h"
#include "kv/store.h"
#include "net/network.h"
#include "obs/obs_cli.h"
#include "sdf/sdf_device.h"
#include "sim/simulator.h"
#include "ssd/conventional_ssd.h"

namespace sdf::testbed {

/** Which storage device backs the stack. */
enum class Backend
{
    kBaiduSdf,
    kHuaweiGen3,
    kIntel320,
};

inline const char *
BackendName(Backend kind)
{
    switch (kind) {
      case Backend::kBaiduSdf: return "Baidu SDF";
      case Backend::kHuaweiGen3: return "Huawei Gen3";
      case Backend::kIntel320: return "Intel 320";
    }
    return "?";
}

/** How to build one storage stack (device through patch storage). */
struct StackConfig
{
    Backend backend = Backend::kBaiduSdf;
    double capacity_scale = 0.05;
    /** Charge per-request host I/O-stack costs (user-space spec on SDF,
     *  kernel spec on a conventional SSD). */
    bool with_io_stack = true;
    /**
     * Inert: nothing reads it. It once ran a conventional SSD under the
     * block layer through an adapter; the frozen benchmark sources
     * (sdfbench/) still set it, so it stays until they are next revised.
     */
    bool ssd_through_block_layer = false;
    blocklayer::BlockLayerConfig layer;
    /** Post-hoc device config tweaks (error model, seeds, retry depth). */
    std::function<void(core::SdfConfig &)> tune_sdf;
};

/** An assembled stack: sdf and layer on SDF, ssd on a conventional SSD. */
struct StorageStack
{
    std::unique_ptr<core::SdfDevice> sdf;
    std::unique_ptr<ssd::ConventionalSsd> ssd;
    std::unique_ptr<blocklayer::BlockLayer> layer;
    std::unique_ptr<host::IoStack> io_stack;
    std::unique_ptr<kv::PatchStorage> storage;
};

/** Build device + (block layer) + I/O stack + patch storage on @p sim. */
StorageStack BuildStorageStack(sim::Simulator &sim, const StackConfig &cfg);

/** How to build a full single-node KV stack. */
struct KvStackConfig
{
    StackConfig stack;
    kv::StoreConfig store;
};

/** A storage stack with a multi-slice Store on top. */
struct KvStack
{
    StorageStack storage;
    std::unique_ptr<kv::Store> store;
};

/**
 * @param journal Optional durable store mirror (see kv/recovery.h): pass
 *     a node's journal so the store can be rebuilt from it on restart.
 */
KvStack BuildKvStack(sim::Simulator &sim, const KvStackConfig &cfg,
                     kv::StoreJournal *journal = nullptr);

/** A complete single-node CCDB deployment for one experiment run. */
class KvTestbed
{
  public:
    /**
     * @param kind Backing device.
     * @param slice_count Slices hosted on the node.
     * @param clients Network clients (usually == slice_count).
     * @param capacity_scale Device scale factor.
     * @param hub Optional observability hub, installed on the testbed's
     *     simulator before any component is built so that every layer
     *     self-registers its metrics. Defaults to the process-wide
     *     ObsCli hub (null when no export flags were given).
     */
    KvTestbed(Backend kind, uint32_t slice_count, uint32_t clients,
              double capacity_scale, kv::SliceConfig slice_cfg = {},
              obs::Hub *hub = nullptr);

    /**
     * Preload each slice with @p bytes_per_slice of @p value_size values;
     * conventional devices are also brought to a matching fill level.
     * @return per-slice key lists.
     */
    std::vector<std::vector<uint64_t>> Preload(uint64_t bytes_per_slice,
                                               uint32_t value_size);

    std::vector<kv::Slice *> SlicePtrs();

    sim::Simulator &sim() { return sim_; }
    net::Network &net() { return net_; }
    kv::Store &store() { return *kv_.store; }
    core::SdfDevice *sdf_device() { return kv_.storage.sdf.get(); }
    ssd::ConventionalSsd *ssd_device() { return kv_.storage.ssd.get(); }

  private:
    /** Installs the hub on the simulator before later members construct. */
    struct HubBind
    {
        HubBind(sim::Simulator &sim, obs::Hub *hub)
        {
            if (hub != nullptr) sim.set_hub(hub);
        }
    };

    sim::Simulator sim_;
    HubBind hub_bind_;
    net::Network net_;
    KvStack kv_;
};

}  // namespace sdf::testbed

#endif  // SDF_TESTBED_TESTBED_H
