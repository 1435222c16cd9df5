//! The asymptotic bounds stated by the paper, as concrete formulas.
//!
//! The experiment harness compares measured deviation / additional-miss
//! counts against these expressions (up to constant factors); keeping them
//! in one place documents exactly which quantity each theorem bounds.

/// Theorem 8: expected deviations of work stealing on a structured
/// single-touch computation with the future-first policy — `O(P·T∞²)`.
pub fn thm8_deviations(processors: u64, span: u64) -> u64 {
    processors.saturating_mul(span.saturating_mul(span))
}

/// Theorem 8: expected additional cache misses — `O(C·P·T∞²)`.
pub fn thm8_additional_misses(cache_lines: u64, processors: u64, span: u64) -> u64 {
    cache_lines.saturating_mul(thm8_deviations(processors, span))
}

/// Theorem 9: deviations attainable on the Figure 6(c) construction —
/// `Ω(P·T∞²)`.
pub fn thm9_deviations(processors: u64, span: u64) -> u64 {
    thm8_deviations(processors, span)
}

/// Theorem 10: deviations attainable with the parent-first policy on the
/// Figure 8 construction — `Ω(t·T∞)`.
pub fn thm10_deviations(touches: u64, span: u64) -> u64 {
    touches.saturating_mul(span)
}

/// Theorem 10: additional cache misses attainable with the parent-first
/// policy — `Ω(C·t·T∞)`.
pub fn thm10_additional_misses(cache_lines: u64, touches: u64, span: u64) -> u64 {
    cache_lines.saturating_mul(thm10_deviations(touches, span))
}

/// Theorem 12: the future-first upper bound extends verbatim from
/// structured single-touch to structured *local-touch* computations —
/// `O(P·T∞²)` expected deviations. The formula is Theorem 8's; the alias
/// documents which theorem an experiment over pipelines, streaming sorts or
/// stencils is actually checking.
pub fn thm12_deviations(processors: u64, span: u64) -> u64 {
    thm8_deviations(processors, span)
}

/// Theorem 12: expected additional cache misses on structured local-touch
/// computations — `O(C·P·T∞²)`.
pub fn thm12_additional_misses(cache_lines: u64, processors: u64, span: u64) -> u64 {
    thm8_additional_misses(cache_lines, processors, span)
}

/// Theorem 16: the future-first upper bound survives adding a *super final
/// node* (Definition 13) — structured single-touch computations whose
/// side-effect threads are synchronized only by the final node still incur
/// `O(P·T∞²)` expected deviations. The formula is Theorem 8's; the alias
/// documents which theorem a super-final experiment (E6, E16 at
/// `steps = 1`) is actually checking.
pub fn thm16_deviations(processors: u64, span: u64) -> u64 {
    thm8_deviations(processors, span)
}

/// Theorem 16: expected additional cache misses on structured single-touch
/// computations with a super final node — `O(C·P·T∞²)`.
pub fn thm16_additional_misses(cache_lines: u64, processors: u64, span: u64) -> u64 {
    thm8_additional_misses(cache_lines, processors, span)
}

/// Theorem 18: the Theorem 12 local-touch bound with a *super final node*
/// (Definition 17) — `O(P·T∞²)` expected deviations. The formula is
/// Theorem 8's; the alias documents which theorem an experiment over
/// symmetric-exchange stencils (E16 at `steps > 1`) is actually checking.
pub fn thm18_deviations(processors: u64, span: u64) -> u64 {
    thm8_deviations(processors, span)
}

/// Theorem 18: expected additional cache misses on structured local-touch
/// computations with a super final node — `O(C·P·T∞²)`.
pub fn thm18_additional_misses(cache_lines: u64, processors: u64, span: u64) -> u64 {
    thm8_additional_misses(cache_lines, processors, span)
}

/// Spoonhower et al.'s bound for general (unstructured) futures under work
/// stealing: `Ω(P·T∞ + t·T∞)` deviations.
pub fn unstructured_deviations(processors: u64, touches: u64, span: u64) -> u64 {
    processors
        .saturating_mul(span)
        .saturating_add(touches.saturating_mul(span))
}

/// The additional-miss form of the unstructured bound:
/// `Ω(C·P·T∞ + C·t·T∞)`.
pub fn unstructured_additional_misses(
    cache_lines: u64,
    processors: u64,
    touches: u64,
    span: u64,
) -> u64 {
    cache_lines.saturating_mul(unstructured_deviations(processors, touches, span))
}

/// Acar, Blelloch and Blumofe's bridge between the two measures: the number
/// of additional cache misses of a work-stealing execution is at most `C`
/// times its number of deviations. That needs LRU's property that a
/// cache's misses on a trace depend on its starting contents by at most
/// `C` (FIFO lacks it; `docs/DESIGN.md` §2).
pub fn misses_from_deviations(cache_lines: u64, deviations: u64) -> u64 {
    cache_lines.saturating_mul(deviations)
}

/// Expected number of steals of parsimonious work stealing
/// (Arora–Blumofe–Plaxton): `O(P·T∞)`.
pub fn expected_steals(processors: u64, span: u64) -> u64 {
    processors.saturating_mul(span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_scale_as_stated() {
        assert_eq!(thm8_deviations(4, 10), 400);
        assert_eq!(thm8_additional_misses(8, 4, 10), 3200);
        assert_eq!(thm9_deviations(3, 7), thm8_deviations(3, 7));
        assert_eq!(thm12_deviations(4, 10), thm8_deviations(4, 10));
        assert_eq!(thm12_additional_misses(8, 4, 10), 3200);
        assert_eq!(thm16_deviations(4, 10), thm8_deviations(4, 10));
        assert_eq!(thm16_additional_misses(8, 4, 10), 3200);
        assert_eq!(thm18_deviations(4, 10), thm8_deviations(4, 10));
        assert_eq!(thm18_additional_misses(8, 4, 10), 3200);
        assert_eq!(thm10_deviations(16, 10), 160);
        assert_eq!(thm10_additional_misses(8, 16, 10), 1280);
        assert_eq!(unstructured_deviations(4, 16, 10), 200);
        assert_eq!(unstructured_additional_misses(2, 4, 16, 10), 400);
        assert_eq!(misses_from_deviations(8, 5), 40);
        assert_eq!(expected_steals(4, 100), 400);
    }

    #[test]
    fn structured_bound_beats_unstructured_when_touches_dominate() {
        // The whole point of the paper: once t >> P·T∞, the structured
        // single-touch bound O(P·T∞²) is far below Ω(t·T∞).
        let (p, c, span) = (4u64, 8u64, 100u64);
        let touches = 1_000_000u64;
        assert!(
            thm8_additional_misses(c, p, span)
                < unstructured_additional_misses(c, p, touches, span)
        );
    }

    #[test]
    fn saturating_behaviour_on_huge_inputs() {
        assert_eq!(thm8_deviations(u64::MAX, u64::MAX), u64::MAX);
        assert_eq!(unstructured_deviations(u64::MAX, u64::MAX, 2), u64::MAX);
    }
}
