#include "kv/patch_storage.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace sdf::kv {

namespace {

/**
 * Run @p op through @p stack when present; otherwise call it directly.
 * Adapts the status-carrying PatchCallback to the IoStack's plain
 * callbacks, preserving the typed error across the stack transit.
 */
void
ThroughStack(host::IoStack *stack,
             std::function<void(PatchCallback)> op, PatchCallback done)
{
    if (!stack) {
        op(std::move(done));
        return;
    }
    auto st = std::make_shared<core::IoStatus>(core::IoError::kWriteFailed);
    stack->Issue(
        [op = std::move(op), st](host::IoStack::Completion d) {
            op([st, d](core::IoStatus status) {
                *st = status;
                d();
            });
        },
        [st, done = std::move(done)]() {
            if (done) done(*st);
        });
}

}  // namespace

void
BlockPatchStorage::PutPatch(uint64_t id, PatchCallback done,
                            const uint8_t *data, int priority)
{
    ThroughStack(stack_,
                 [this, id, data, priority](PatchCallback d) {
                     layer_.Put(id, std::move(d), data, priority);
                 },
                 std::move(done));
}

void
BlockPatchStorage::GetRange(uint64_t id, uint64_t offset, uint64_t length,
                            PatchCallback done, std::vector<uint8_t> *out,
                            int priority)
{
    ThroughStack(stack_,
                 [this, id, offset, length, out, priority](PatchCallback d) {
                     layer_.Get(id, offset, length, std::move(d), out,
                                priority);
                 },
                 std::move(done));
}

SsdPatchStorage::SsdPatchStorage(ssd::ConventionalSsd &device,
                                 uint64_t patch_bytes, host::IoStack *stack)
    : device_(device), patch_bytes_(patch_bytes), stack_(stack)
{
    SDF_CHECK(patch_bytes > 0);
    const uint64_t extents = device.user_capacity() / patch_bytes;
    SDF_CHECK_MSG(extents > 0, "SSD smaller than one patch");
    for (uint64_t e = 0; e < extents; ++e)
        free_extents_.push_back(e * patch_bytes);
}

uint32_t
SsdPatchStorage::alignment() const
{
    return device_.config().flash.geometry.page_size;
}

void
SsdPatchStorage::PutPatch(uint64_t id, PatchCallback done,
                          const uint8_t *data, int priority)
{
    (void)priority;  // A conventional SSD cannot distinguish traffic classes.
    SDF_CHECK_MSG(!extent_of_.count(id), "patch id reused");
    if (free_extents_.empty()) {
        if (done) done(core::IoError::kNoSpace);
        return;
    }
    const uint64_t offset = free_extents_.front();
    free_extents_.pop_front();
    extent_of_[id] = offset;
    ThroughStack(stack_,
                 [this, offset, data](PatchCallback d) {
                     device_.Write(offset, patch_bytes_, std::move(d), data);
                 },
                 std::move(done));
}

void
SsdPatchStorage::GetRange(uint64_t id, uint64_t offset, uint64_t length,
                          PatchCallback done, std::vector<uint8_t> *out,
                          int priority)
{
    (void)priority;
    auto it = extent_of_.find(id);
    if (it == extent_of_.end() || offset + length > patch_bytes_) {
        if (done) done(core::IoError::kNotFound);
        return;
    }
    const uint64_t base = it->second;
    ThroughStack(stack_,
                 [this, base, offset, length, out](PatchCallback d) {
                     device_.Read(base + offset, length, std::move(d), out);
                 },
                 std::move(done));
}

std::vector<uint64_t>
SsdPatchStorage::StoredIds() const
{
    std::vector<uint64_t> ids;
    ids.reserve(extent_of_.size());
    for (const auto &[id, offset] : extent_of_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

void
SsdPatchStorage::DeletePatch(uint64_t id)
{
    auto it = extent_of_.find(id);
    if (it == extent_of_.end()) return;
    free_extents_.push_back(it->second);
    extent_of_.erase(it);
}

bool
SsdPatchStorage::DebugInstallPatch(uint64_t id)
{
    // The extent space itself needs no device-side state: callers must
    // PreconditionFill() the SSD to cover the installed extents.
    if (extent_of_.count(id) || free_extents_.empty()) return false;
    const uint64_t offset = free_extents_.front();
    free_extents_.pop_front();
    extent_of_[id] = offset;
    return true;
}

}  // namespace sdf::kv
