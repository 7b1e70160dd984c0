/**
 * @file
 * Storage abstraction for 8 MB patches.
 *
 * CCDB writes immutable 8 MB patches (the analogue of BigTable SSTables).
 * On SDF the patches go through the user-space block layer; on a
 * conventional SSD they go to 8 MB extents of the device's logical space.
 * The same Slice code runs over both, which is exactly the comparison the
 * paper's production experiments make (Figures 10-14).
 */
#ifndef SDF_KV_PATCH_STORAGE_H
#define SDF_KV_PATCH_STORAGE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "blocklayer/block_layer.h"
#include "sim/callback.h"
#include "host/io_stack.h"
#include "ssd/conventional_ssd.h"

namespace sdf::kv {

/**
 * Completion callback for patch I/O. Carries the typed device error so
 * upper layers can distinguish lost data (kReadUncorrectable — fall back
 * to a replica) from a dead channel or plain congestion. Callables taking
 * bool still work: IoStatus converts to bool (true == ok).
 */
using PatchCallback = sim::Func<void(core::IoStatus)>;

/** Abstract home for immutable fixed-size patches. */
class PatchStorage
{
  public:
    virtual ~PatchStorage() = default;

    /** Size of every patch (the 8 MB write unit). */
    virtual uint64_t patch_bytes() const = 0;

    /**
     * Required alignment for GetRange offsets/lengths (the device read
     * unit: 8 KB on SDF, one page on a conventional SSD). Callers reading
     * an unaligned value must round outward and trim.
     */
    virtual uint32_t alignment() const = 0;

    /** Persist patch @p id. @p priority: block-layer priority class. */
    virtual void PutPatch(uint64_t id, PatchCallback done,
                          const uint8_t *data, int priority) = 0;

    /** Read @p length bytes at @p offset within patch @p id. */
    virtual void GetRange(uint64_t id, uint64_t offset, uint64_t length,
                          PatchCallback done, std::vector<uint8_t> *out,
                          int priority) = 0;

    /** Drop patch @p id and reclaim its space. */
    virtual void DeletePatch(uint64_t id) = 0;

    /**
     * IDs of every stored patch, ascending. A restarting node reconciles
     * this against its journal: stored patches no footer references were
     * in flight at the stop and get reclaimed as orphans.
     */
    virtual std::vector<uint64_t> StoredIds() const = 0;

    /** Remaining capacity in patches. */
    virtual uint64_t FreePatchSlots() const = 0;

    /**
     * Instantly install patch @p id as already stored (simulation backdoor
     * for preconditioning; timing-only — no payload).
     */
    virtual bool DebugInstallPatch(uint64_t id) = 0;
};

/**
 * Patches through the user-space block layer on SDF: one patch is one
 * 8 MB unit on a channel the layer picks. Per-request costs of the thin
 * user-space I/O stack (2-4 us, §2.4) are charged when an IoStack is
 * supplied.
 */
class BlockPatchStorage : public PatchStorage
{
  public:
    explicit BlockPatchStorage(blocklayer::BlockLayer &layer,
                               host::IoStack *stack = nullptr)
        : layer_(layer), stack_(stack) {}

    uint64_t patch_bytes() const override { return layer_.block_bytes(); }

    uint32_t
    alignment() const override
    {
        return layer_.device().read_unit_bytes();
    }

    void PutPatch(uint64_t id, PatchCallback done, const uint8_t *data,
                  int priority) override;
    void GetRange(uint64_t id, uint64_t offset, uint64_t length,
                  PatchCallback done, std::vector<uint8_t> *out,
                  int priority) override;

    void DeletePatch(uint64_t id) override { layer_.Delete(id); }

    std::vector<uint64_t> StoredIds() const override
    {
        return layer_.StoredIds();
    }

    uint64_t FreePatchSlots() const override { return layer_.FreeUnits(); }

    bool DebugInstallPatch(uint64_t id) override
    {
        return layer_.DebugInstall(id);
    }

  private:
    blocklayer::BlockLayer &layer_;
    host::IoStack *stack_;
};

/**
 * Patches on a conventional SSD: a trivial extent allocator over the
 * device's flat logical space. Deleted extents are reused by overwriting
 * (no TRIM — matching how the production system drove commodity SSDs, and
 * the source of their GC pressure).
 */
class SsdPatchStorage : public PatchStorage
{
  public:
    /**
     * @param patch_bytes Extent size; must divide the SSD's capacity.
     * @param stack Optional kernel I/O stack charged per request
     *     (~12.9 us on the Linux path of Figure 6a).
     */
    SsdPatchStorage(ssd::ConventionalSsd &device, uint64_t patch_bytes,
                    host::IoStack *stack = nullptr);

    uint64_t patch_bytes() const override { return patch_bytes_; }
    uint32_t alignment() const override;
    void PutPatch(uint64_t id, PatchCallback done, const uint8_t *data,
                  int priority) override;
    void GetRange(uint64_t id, uint64_t offset, uint64_t length,
                  PatchCallback done, std::vector<uint8_t> *out,
                  int priority) override;
    void DeletePatch(uint64_t id) override;
    std::vector<uint64_t> StoredIds() const override;
    uint64_t FreePatchSlots() const override { return free_extents_.size(); }
    bool DebugInstallPatch(uint64_t id) override;

  private:
    ssd::ConventionalSsd &device_;
    uint64_t patch_bytes_;
    host::IoStack *stack_;
    std::deque<uint64_t> free_extents_;  ///< Byte offsets of free extents.
    std::unordered_map<uint64_t, uint64_t> extent_of_;  ///< id -> offset.
};

}  // namespace sdf::kv

#endif  // SDF_KV_PATCH_STORAGE_H
