//! GraphBLAS-style semirings (§2: "graph algorithms … utilize various
//! semirings"). A semiring supplies the `multiply` that combines one entry
//! of `A` with one of `B` and the `add` monoid that accumulates products
//! landing on the same output coordinate.
//!
//! Semirings are zero-sized types with associated functions so the inner
//! loops monomorphize with no indirection.

/// A semiring `(add, zero, mul)` over input types `Left`/`Right` producing
/// `Out`.
///
/// Laws expected (and property-tested for the stock implementations):
/// `add` is associative and commutative with identity `ZERO`. The masked
/// SpGEMM kernels accumulate each output coordinate in a fixed per-row
/// order, so they are deterministic even for non-associative floats.
pub trait Semiring: Copy + Send + Sync + 'static {
    /// Element type of the left operand `A`.
    type Left: Copy + Send + Sync;
    /// Element type of the right operand `B`.
    type Right: Copy + Send + Sync;
    /// Element type of the output `C` (also the accumulator type).
    /// `Default` is used only as a placeholder when pre-sizing buffers; the
    /// additive identity is [`Semiring::ZERO`].
    type Out: Copy + Send + Sync + PartialEq + std::fmt::Debug + Default;

    /// Identity of `add`.
    const ZERO: Self::Out;

    /// Whether `Left` and `Right` are one type and `mul(x, y) == mul(y, x)`
    /// bit for bit. With `A = Aᵀ` this makes `A·A` symmetric, term by term
    /// (`a_ik · a_kj` and `a_jk · a_ki` are the same two numbers), which is
    /// what lets `masked_spgemm`'s `Auto` compute a symmetric self-product
    /// once per edge. `false` unless an implementation says otherwise.
    const MUL_COMMUTES: bool = false;

    /// Whether `mul` ignores its operands: every product is the same value,
    /// so a sum of products depends only on how many there are, which
    /// [`Semiring::count`] gives. This lets the pull kernel count a dot's
    /// intersection instead of multiplying it. `false` unless an
    /// implementation says otherwise, and one that does implements `count`.
    const MUL_IGNORES_OPERANDS: bool = false;

    /// The multiplicative combine.
    fn mul(a: Self::Left, b: Self::Right) -> Self::Out;

    /// The additive monoid.
    fn add(x: Self::Out, y: Self::Out) -> Self::Out;

    /// The sum of `n ≥ 1` products, for a semiring whose `mul` ignores its
    /// operands ([`Semiring::MUL_IGNORES_OPERANDS`]); never called on any
    /// other.
    fn count(n: u64) -> Self::Out {
        unreachable!("count({n}) on a semiring whose mul reads its operands")
    }
}

/// The arithmetic semiring `(+, ×)` over `f64` — the paper's running
/// example.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusTimesF64;

impl Semiring for PlusTimesF64 {
    type Left = f64;
    type Right = f64;
    type Out = f64;
    const ZERO: f64 = 0.0;
    const MUL_COMMUTES: bool = true;
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn add(x: f64, y: f64) -> f64 {
        x + y
    }
}

/// `(+, ×)` over `i64` (signed integer tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusTimesI64;

impl Semiring for PlusTimesI64 {
    type Left = i64;
    type Right = i64;
    type Out = i64;
    const ZERO: i64 = 0;
    const MUL_COMMUTES: bool = true;
    #[inline(always)]
    fn mul(a: i64, b: i64) -> i64 {
        a * b
    }
    #[inline(always)]
    fn add(x: i64, y: i64) -> i64 {
        x + y
    }
}

/// The `plus_pair` semiring: `mul` ignores both operands and returns 1, so
/// each accumulated coordinate counts *structural* collisions. This is the
/// semiring SuiteSparse uses for triangle counting / k-truss support.
/// Operands are patterns (`()`), so pattern CSRs multiply directly.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusPairU64;

impl Semiring for PlusPairU64 {
    type Left = ();
    type Right = ();
    type Out = u64;
    const ZERO: u64 = 0;
    const MUL_COMMUTES: bool = true;
    const MUL_IGNORES_OPERANDS: bool = true;
    #[inline(always)]
    fn mul(_: (), _: ()) -> u64 {
        1
    }
    #[inline(always)]
    fn add(x: u64, y: u64) -> u64 {
        x + y
    }
    #[inline(always)]
    fn count(n: u64) -> u64 {
        n
    }
}

/// `plus_pair` over `f64` operands, counting in `f64`: what a unit-valued
/// matrix's `plus_times` product is, read off its pattern alone. Every
/// sum of `1.0`s below 2⁵³ is the exact integer in any order, so on such
/// a matrix it equals [`PlusTimesF64`] by bits, and its values are never
/// read.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusPairF64;

impl Semiring for PlusPairF64 {
    type Left = f64;
    type Right = f64;
    type Out = f64;
    const ZERO: f64 = 0.0;
    const MUL_COMMUTES: bool = true;
    const MUL_IGNORES_OPERANDS: bool = true;
    #[inline(always)]
    fn mul(_: f64, _: f64) -> f64 {
        1.0
    }
    #[inline(always)]
    fn add(x: f64, y: f64) -> f64 {
        x + y
    }
    #[inline(always)]
    fn count(n: u64) -> f64 {
        n as f64
    }
}

/// The boolean `(∨, ∧)` semiring: reachability / BFS frontiers.
#[derive(Clone, Copy, Debug, Default)]
pub struct OrAndBool;

impl Semiring for OrAndBool {
    type Left = bool;
    type Right = bool;
    type Out = bool;
    const ZERO: bool = false;
    const MUL_COMMUTES: bool = true;
    #[inline(always)]
    fn mul(a: bool, b: bool) -> bool {
        a && b
    }
    #[inline(always)]
    fn add(x: bool, y: bool) -> bool {
        x || y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_monoid<S: Semiring>(samples: &[S::Out]) {
        for &x in samples {
            assert_eq!(S::add(x, S::ZERO), x, "right identity");
            assert_eq!(S::add(S::ZERO, x), x, "left identity");
            for &y in samples {
                assert_eq!(S::add(x, y), S::add(y, x), "commutativity");
                for &z in samples {
                    assert_eq!(
                        S::add(S::add(x, y), z),
                        S::add(x, S::add(y, z)),
                        "associativity"
                    );
                }
            }
        }
    }

    #[test]
    fn plus_times_i64_monoid_laws() {
        check_monoid::<PlusTimesI64>(&[0, 1, -2, 17, -1000]);
    }

    #[test]
    fn or_and_monoid_laws() {
        check_monoid::<OrAndBool>(&[false, true]);
    }

    #[test]
    fn declared_commuting_muls_commute() {
        fn check<S: Semiring<Right = <S as Semiring>::Left>>(samples: &[S::Left]) {
            const { assert!(S::MUL_COMMUTES) };
            for &x in samples {
                for &y in samples {
                    assert_eq!(S::mul(x, y), S::mul(y, x));
                }
            }
        }
        let floats = [0.0, -0.0, 1.5, -7.0, 1e16, 1e-300, f64::INFINITY];
        check::<PlusTimesF64>(&floats[..6]); // 0 · ∞ is NaN, equal to nothing
        check::<PlusTimesI64>(&[0, -1, 17, -(1 << 31)]);
        check::<OrAndBool>(&[false, true]);
        check::<PlusPairU64>(&[()]);
        check::<PlusPairF64>(&floats);
    }

    /// `plus_first` (`mul(a, b) = a`), which overrides no default: its mul
    /// is not symmetric in its operands, and it reads one of them.
    #[derive(Clone, Copy)]
    struct PlusFirst;

    impl Semiring for PlusFirst {
        type Left = f64;
        type Right = ();
        type Out = f64;
        const ZERO: f64 = 0.0;
        fn mul(a: f64, _: ()) -> f64 {
            a
        }
        fn add(x: f64, y: f64) -> f64 {
            x + y
        }
    }

    #[test]
    fn flags_default_to_false() {
        assert_eq!(PlusFirst::mul(3.5, ()), 3.5);
        const { assert!(!PlusFirst::MUL_COMMUTES && !PlusFirst::MUL_IGNORES_OPERANDS) };
    }

    #[test]
    fn plus_pair_counts() {
        assert_eq!(PlusPairU64::mul((), ()), 1);
        let mut acc = PlusPairU64::ZERO;
        for _ in 0..5 {
            acc = PlusPairU64::add(acc, PlusPairU64::mul((), ()));
        }
        assert_eq!(acc, 5);
    }

    #[test]
    fn counts_are_sums_of_products() {
        /// `count(n)` against `n` products added one by one, by bits.
        fn check<S: Semiring>(x: S::Left, y: S::Right, same: impl Fn(S::Out, S::Out) -> bool) {
            const { assert!(S::MUL_IGNORES_OPERANDS) };
            let mut acc = S::mul(x, y);
            for n in 1..=1000 {
                assert!(same(S::count(n), acc), "n = {n}");
                acc = S::add(acc, S::mul(x, y));
            }
        }
        check::<PlusPairU64>((), (), |a, b| a == b);
        check::<PlusPairF64>(-3.5, 1e300, |a, b| a.to_bits() == b.to_bits());
        const { assert!(!PlusTimesF64::MUL_IGNORES_OPERANDS) };
    }
}
