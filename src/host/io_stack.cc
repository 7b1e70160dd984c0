#include "host/io_stack.h"

#include <utility>

#include "util/assert.h"

namespace sdf::host {

IoStackSpec
KernelIoStackSpec()
{
    // §4.3: 9100 cycles to issue, 21900 to complete, at 2.4 GHz.
    IoStackSpec s;
    s.name = "linux-kernel";
    s.issue_cost = util::UsToNs(3.8);
    s.completion_cost = util::UsToNs(9.1);
    return s;
}

IoStackSpec
SdfUserStackSpec()
{
    // §2.4: 2-4 µs total, mostly MSI handling on completion.
    IoStackSpec s;
    s.name = "sdf-userspace";
    s.issue_cost = util::UsToNs(1.0);
    s.completion_cost = util::UsToNs(2.0);
    return s;
}

IoStackSpec
NullIoStackSpec()
{
    return IoStackSpec{"null", 0, 0};
}

IoStack::IoStack(sim::Simulator &sim, const IoStackSpec &spec,
                 uint32_t cpu_count)
    : sim_(sim), spec_(spec)
{
    SDF_CHECK(cpu_count > 0);
    cpus_.reserve(cpu_count);
    for (uint32_t i = 0; i < cpu_count; ++i)
        cpus_.push_back(std::make_unique<sim::FifoResource>(sim));
}

sim::FifoResource &
IoStack::PickCpu()
{
    // Least-loaded CPU: earliest drain horizon.
    sim::FifoResource *best = cpus_[0].get();
    for (auto &cpu : cpus_) {
        if (cpu->free_at() < best->free_at()) best = cpu.get();
    }
    return *best;
}

void
IoStack::Issue(Operation op, sim::Callback done, obs::IoSpan *span)
{
    ++requests_;
    cpu_time_ += spec_.issue_cost + spec_.completion_cost;
    if (free_.empty()) free_.push_back(&pool_.emplace_back());
    Request *r = free_.back();
    free_.pop_back();
    r->op = std::move(op);
    r->done = std::move(done);
    r->span = span;
    auto issue = [this, r]() {
        // Whatever the device does next is its own stage; mark the default
        // (kDevice) in case it records nothing finer.
        if (r->span != nullptr) {
            r->span->Enter(obs::Stage::kDevice, sim_.Now());
        }
        Operation run = std::move(r->op);
        run(Completion(this, r));
    };
    static_assert(sim::Callback::kFitsInline<decltype(issue)>);
    PickCpu().Submit(spec_.issue_cost, std::move(issue));
}

void
IoStack::Complete(Request *r)
{
    if (r->span != nullptr) {
        r->span->Enter(obs::Stage::kHostComplete, sim_.Now());
    }
    if (!r->done) {
        // Nobody waits: the completion cost only occupies the CPU.
        Release(r);
        PickCpu().Submit(spec_.completion_cost, nullptr);
        return;
    }
    auto finish = [this, r]() {
        sim::Callback done = std::move(r->done);
        Release(r);
        done();
    };
    static_assert(sim::Callback::kFitsInline<decltype(finish)>);
    PickCpu().Submit(spec_.completion_cost, std::move(finish));
}

void
IoStack::Release(Request *r)
{
    r->span = nullptr;
    free_.push_back(r);
}

}  // namespace sdf::host
