/**
 * @file
 * A small-buffer-optimized, move-only callable.
 *
 * The discrete-event hot path schedules millions of closures per
 * simulated second; std::function heap-allocates any capture larger
 * than (typically) two pointers, which makes the allocator the
 * bottleneck. InlineFunction stores the callable inline when it fits
 * in the (compile-time) buffer — covering every capture shape the
 * simulator uses on hot paths — and only falls back to the heap for
 * oversized cold-path callables.
 *
 * Dispatch goes through a per-type static operations table (invoke /
 * consume / relocate / destroy), so the object itself is just the
 * buffer plus one pointer.
 */

#ifndef NEON_SIM_INLINE_FUNCTION_HH
#define NEON_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace neon
{

template <typename Signature, std::size_t InlineBytes = 64>
class InlineFunction; // undefined; specialized below

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes>
{
  public:
    /** Does a callable of type F store inline (no heap allocation)? */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= InlineBytes &&
        alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                 std::is_invocable_r_v<R, std::remove_cvref_t<F> &, Args...>)
    InlineFunction(F &&f)
    {
        emplace(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&o) noexcept { moveFrom(o); }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    /**
     * Construct a callable directly into this object's storage —
     * hot-path schedule() uses this to go from the caller's lambda to
     * the stored event with zero intermediate moves.
     */
    template <typename F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                 std::is_invocable_r_v<R, std::remove_cvref_t<F> &, Args...>)
    void
    emplace(F &&f)
    {
        reset();
        using Fn = std::remove_cvref_t<F>;
        if constexpr (fitsInline<Fn>) {
            ::new (static_cast<void *>(buf)) Fn(std::forward<F>(f));
            ops = &inlineOps<Fn>;
        } else {
            // Cold path: the callable is too large (or has an exotic
            // alignment); box it. Hot-path call sites static_assert
            // fitsInline so this never happens where it matters.
            *reinterpret_cast<Fn **>(buf) = new Fn(std::forward<F>(f));
            ops = &heapOps<Fn>;
        }
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return ops != nullptr; }

    R
    operator()(Args... args)
    {
        return ops->invoke(buf, std::forward<Args>(args)...);
    }

    /**
     * Invoke the callable once and destroy it where it lies, leaving
     * this object empty: one indirect call where moving it out,
     * invoking and destroying it would take three. The object already
     * reads as empty while the call runs.
     */
    R
    consume(Args... args)
    {
        const Ops *o = ops;
        ops = nullptr;
        return o->consume(buf, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        R (*consume)(void *, Args &&...);
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static Fn &
    asInline(void *p)
    {
        return *std::launder(reinterpret_cast<Fn *>(p));
    }

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *p, Args &&...args) -> R {
            return asInline<Fn>(p)(std::forward<Args>(args)...);
        },
        [](void *p, Args &&...args) -> R {
            // Destroyed on the way out, after the result is built.
            struct Destroy
            {
                Fn &f;
                ~Destroy() { f.~Fn(); }
            } d{asInline<Fn>(p)};
            return d.f(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            ::new (dst) Fn(std::move(asInline<Fn>(src)));
            asInline<Fn>(src).~Fn();
        },
        [](void *p) noexcept { asInline<Fn>(p).~Fn(); },
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *p, Args &&...args) -> R {
            return (**reinterpret_cast<Fn **>(p))(
                std::forward<Args>(args)...);
        },
        [](void *p, Args &&...args) -> R {
            const std::unique_ptr<Fn> f(*reinterpret_cast<Fn **>(p));
            return (*f)(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            *reinterpret_cast<Fn **>(dst) = *reinterpret_cast<Fn **>(src);
        },
        [](void *p) noexcept { delete *reinterpret_cast<Fn **>(p); },
    };

    void
    moveFrom(InlineFunction &o) noexcept
    {
        if (o.ops) {
            ops = o.ops;
            ops->relocate(buf, o.buf);
            o.ops = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops) {
            ops->destroy(buf);
            ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf[InlineBytes];
    const Ops *ops = nullptr;
};

} // namespace neon

#endif // NEON_SIM_INLINE_FUNCTION_HH
