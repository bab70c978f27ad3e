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

    /// The multiplicative combine.
    fn mul(a: Self::Left, b: Self::Right) -> Self::Out;

    /// The additive monoid.
    fn add(x: Self::Out, y: Self::Out) -> Self::Out;
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

/// `(+, ×)` over `u64`: exact counting (triangle counting, k-truss support).
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusTimesU64;

impl Semiring for PlusTimesU64 {
    type Left = u64;
    type Right = u64;
    type Out = u64;
    const ZERO: u64 = 0;
    const MUL_COMMUTES: bool = true;
    #[inline(always)]
    fn mul(a: u64, b: u64) -> u64 {
        a * b
    }
    #[inline(always)]
    fn add(x: u64, y: u64) -> u64 {
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
    #[inline(always)]
    fn mul(_: (), _: ()) -> u64 {
        1
    }
    #[inline(always)]
    fn add(x: u64, y: u64) -> u64 {
        x + y
    }
}

/// `plus_first`: `mul(a, b) = a`. Betweenness-centrality style traversals
/// where the frontier value propagates and B is purely structural.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusFirstF64;

impl Semiring for PlusFirstF64 {
    type Left = f64;
    type Right = ();
    type Out = f64;
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn mul(a: f64, _: ()) -> f64 {
        a
    }
    #[inline(always)]
    fn add(x: f64, y: f64) -> f64 {
        x + y
    }
}

/// `plus_second`: `mul(a, b) = b`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlusSecondF64;

impl Semiring for PlusSecondF64 {
    type Left = ();
    type Right = f64;
    type Out = f64;
    const ZERO: f64 = 0.0;
    #[inline(always)]
    fn mul(_: (), b: f64) -> f64 {
        b
    }
    #[inline(always)]
    fn add(x: f64, y: f64) -> f64 {
        x + y
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

/// The tropical `(min, +)` semiring over `f64`: shortest paths. `ZERO` is
/// `+∞` (the identity of `min`).
#[derive(Clone, Copy, Debug, Default)]
pub struct MinPlusF64;

impl Semiring for MinPlusF64 {
    type Left = f64;
    type Right = f64;
    type Out = f64;
    const ZERO: f64 = f64::INFINITY;
    const MUL_COMMUTES: bool = true;
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn add(x: f64, y: f64) -> f64 {
        x.min(y)
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
    fn plus_times_u64_monoid_laws() {
        check_monoid::<PlusTimesU64>(&[0, 1, 2, 17, 1000]);
    }

    #[test]
    fn or_and_monoid_laws() {
        check_monoid::<OrAndBool>(&[false, true]);
    }

    #[test]
    fn min_plus_monoid_laws() {
        check_monoid::<MinPlusF64>(&[0.0, 1.5, 7.0, f64::INFINITY]);
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
        check::<MinPlusF64>(&floats);
        check::<PlusTimesU64>(&[0, 1, 17, 1 << 31]);
        check::<PlusTimesI64>(&[0, -1, 17, -(1 << 31)]);
        check::<OrAndBool>(&[false, true]);
        check::<PlusPairU64>(&[()]);
        // The projections are not symmetric in their operands.
        const { assert!(!PlusFirstF64::MUL_COMMUTES && !PlusSecondF64::MUL_COMMUTES) };
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
    fn first_second_project() {
        assert_eq!(PlusFirstF64::mul(3.5, ()), 3.5);
        assert_eq!(PlusSecondF64::mul((), 4.5), 4.5);
    }

    #[test]
    fn min_plus_relaxation() {
        // d(i->j) via k: min over k of d(i->k) + w(k->j)
        let via_a = MinPlusF64::mul(2.0, 3.0);
        let via_b = MinPlusF64::mul(1.0, 5.0);
        assert_eq!(MinPlusF64::add(via_a, via_b), 5.0);
    }
}
