/**
 * @file
 * Small-buffer-optimized callables for simulation events.
 *
 * The event engine dispatches tens of millions of callbacks per run, so the
 * callback type is a measured artifact in its own right. Compared to
 * `std::function`:
 *
 *  - move-only: completion callbacks fire exactly once, so nothing ever
 *    needs the copy constructor — and dropping it lets callers capture
 *    move-only state (unique_ptr payloads, pooled handles, further
 *    callbacks) directly;
 *  - 48 bytes of inline storage (vs libstdc++'s 16): the common captures
 *    on the hot path (`this` + a couple of words, a shared_ptr or two,
 *    a nested continuation) never touch the heap; larger closures fall
 *    back to one allocation;
 *  - a three-pointer dispatch record instead of vtable-ish type erasure:
 *    invoke, relocate and destroy are separate function pointers, so
 *    firing an event is a single indirect call with no virtual dispatch.
 *
 * `Func<Sig>` is the general template; `Callback` (= Func<void()>) is the
 * engine's event type, and the device/KV layers alias their completion
 * signatures onto Func so a request's continuation chain crosses every
 * layer without a single std::function heap allocation.
 */
#ifndef SDF_SIM_CALLBACK_H
#define SDF_SIM_CALLBACK_H

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "util/assert.h"

namespace sdf::sim {

template <typename Sig, size_t InlineBytes = 48>
class Func;  // Only the R(Args...) specialization exists.

/**
 * Move-only callable with small-buffer optimization.
 *
 * Drop-in for the hot paths' former `std::function` uses: null-
 * constructible, truthiness-testable, invocable. Copying is deleted — a
 * completion fires once, and the dispatch path must never be forced to
 * copy a closure (see Simulator::FireTimedHead in the heap reference
 * engine).
 */
template <typename R, typename... Args, size_t InlineBytes>
class Func<R(Args...), InlineBytes>
{
  public:
    /** Inline closure capacity; larger closures take one heap allocation. */
    static constexpr size_t kInlineBytes = InlineBytes;

    /**
     * True if a closure of type @p Fn is stored inline, with no heap
     * allocation: hot paths static_assert it on their per-page closures.
     */
    template <typename Fn>
    static constexpr bool kFitsInline =
        sizeof(Fn) <= kInlineBytes &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    Func() noexcept = default;
    Func(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

    Func(const Func &) = delete;
    Func &operator=(const Func &) = delete;

    Func(Func &&other) noexcept { MoveFrom(other); }

    Func &
    operator=(Func &&other) noexcept
    {
        if (this != &other) {
            Reset();
            MoveFrom(other);
        }
        return *this;
    }

    Func &
    operator=(std::nullptr_t) noexcept
    {
        Reset();
        return *this;
    }

    /** Wrap any matching callable (moved in; may itself be move-only). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Func> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    Func(F &&f)  // NOLINT(google-explicit-constructor)
    {
        using Fn = std::decay_t<F>;
        if constexpr (kFitsInline<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &InlineOps<Fn>::ops;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &HeapOps<Fn>::ops;
        }
    }

    ~Func() { Reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Const-invocable like std::function, so non-mutable lambda captures
     *  can fire it; the closure itself is still invoked non-const. */
    R
    operator()(Args... args) const
    {
        SDF_CHECK_MSG(ops_ != nullptr, "invoking a null sim::Func");
        return ops_->invoke(const_cast<unsigned char *>(buf_),
                            std::forward<Args>(args)...);
    }

    friend bool
    operator==(const Func &f, std::nullptr_t) noexcept
    {
        return f.ops_ == nullptr;
    }
    friend bool
    operator!=(const Func &f, std::nullptr_t) noexcept
    {
        return f.ops_ != nullptr;
    }

  private:
    struct Ops
    {
        R (*invoke)(unsigned char *buf, Args &&...args);
        /** Move the closure from @p src into @p dst (raw, uninitialized). */
        void (*relocate)(unsigned char *src, unsigned char *dst) noexcept;
        void (*destroy)(unsigned char *buf) noexcept;
    };

    template <typename Fn>
    struct InlineOps
    {
        static R
        Invoke(unsigned char *buf, Args &&...args)
        {
            return (*std::launder(reinterpret_cast<Fn *>(buf)))(
                std::forward<Args>(args)...);
        }
        static void
        Relocate(unsigned char *src, unsigned char *dst) noexcept
        {
            Fn *f = std::launder(reinterpret_cast<Fn *>(src));
            ::new (static_cast<void *>(dst)) Fn(std::move(*f));
            f->~Fn();
        }
        static void
        Destroy(unsigned char *buf) noexcept
        {
            std::launder(reinterpret_cast<Fn *>(buf))->~Fn();
        }
        static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
    };

    template <typename Fn>
    struct HeapOps
    {
        static Fn *&
        Slot(unsigned char *buf) noexcept
        {
            return *reinterpret_cast<Fn **>(buf);
        }
        static R
        Invoke(unsigned char *buf, Args &&...args)
        {
            return (*Slot(buf))(std::forward<Args>(args)...);
        }
        static void
        Relocate(unsigned char *src, unsigned char *dst) noexcept
        {
            Slot(dst) = Slot(src);
        }
        static void
        Destroy(unsigned char *buf) noexcept
        {
            delete Slot(buf);
        }
        static constexpr Ops ops = {&Invoke, &Relocate, &Destroy};
    };

    void
    Reset() noexcept
    {
        if (ops_ != nullptr) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    void
    MoveFrom(Func &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(other.buf_, buf_);
            other.ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

/**
 * The event engine's `void()` callable.
 *
 * Its buffer is deliberately larger than the typed completions': the last
 * hop before the engine usually captures one typed Func (56 bytes with
 * the default buffer) plus a word or two of context, and this is the one
 * place where that nesting must stay allocation-free — the closure lands
 * in a pooled engine slot and never relocates again. (A uniform buffer
 * size can never absorb its own nesting: a Func capturing a same-size
 * Func overflows by construction.)
 */
using Callback = Func<void(), 96>;

}  // namespace sdf::sim

#endif  // SDF_SIM_CALLBACK_H
