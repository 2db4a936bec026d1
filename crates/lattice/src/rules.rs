//! The entanglement rules: Tables I and II of the paper.
//!
//! For a node `d_i`, these rules give the index `h` of its *input* parity
//! `p_{h,i}` and the index `j` of its *output* parity `p_{i,j}` on each
//! strand class. The offsets depend on the node's category — **top**
//! (`i ≡ 1 mod s`), **bottom** (`i ≡ 0 mod s`) or **central** — because
//! helical strands wrap around the `s` rows of the lattice.
//!
//! | category | H in/out | RH in | RH out | LH in | LH out |
//! |---|---|---|---|---|---|
//! | top      | i−s / i+s | i−s·p+(s²−1) | i+s+1 | i−(s−1) | i+s·p−(s−1)² |
//! | central  | i−s / i+s | i−(s+1) | i+s+1 | i−(s−1) | i+s−1 |
//! | bottom   | i−s / i+s | i−(s+1) | i+s·p−(s²−1) | i−s·p+(s−1)² | i+s−1 |
//!
//! **Degenerate family `s = 1`** (this includes the α = 1 single chain): the
//! table offsets self-intersect, because every node is simultaneously top
//! and bottom. Following Fig 3 of the paper ("α=2, s=1, p=2" draws the
//! helical parities p1,3, p2,4, …), helical strands simply connect
//! `i − p → i → i + p`, and the horizontal strand connects `i − 1 → i →
//! i + 1`.
//!
//! Indices at or below zero refer to virtual all-zero blocks before the
//! lattice start; callers treat such inputs as always-available zeros.

use crate::config::Config;
use ae_blocks::StrandClass;

/// Category of a node in the helical lattice, determining which row of the
/// rules tables applies (§III.B "Code Specification").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeCategory {
    /// First row of a column: `i ≡ 1 (mod s)`.
    Top,
    /// Interior row of a column.
    Central,
    /// Last row of a column: `i ≡ 0 (mod s)`.
    Bottom,
    /// `s = 1`: the single row is top and bottom at once; the degenerate
    /// rules apply.
    SingleRow,
}

/// Returns the category of node `i` under configuration `cfg`.
///
/// # Panics
///
/// Panics if `i < 1`: virtual positions have no category.
pub fn category(cfg: &Config, i: i64) -> NodeCategory {
    assert!(i >= 1, "node positions start at 1, got {i}");
    let s = cfg.s() as i64;
    if s == 1 {
        return NodeCategory::SingleRow;
    }
    match i.rem_euclid(s) {
        1 => NodeCategory::Top,
        0 => NodeCategory::Bottom,
        _ => NodeCategory::Central,
    }
}

/// Row of node `i` within its column, in `0..s` (0 = top row).
pub fn row(cfg: &Config, i: i64) -> i64 {
    (i - 1).rem_euclid(cfg.s() as i64)
}

/// Column of node `i`, starting at 0.
pub fn column(cfg: &Config, i: i64) -> i64 {
    (i - 1).div_euclid(cfg.s() as i64)
}

/// Index `h` of the input parity `p_{h,i}` of node `i` on `class`
/// (Table I). May be ≤ 0 near the lattice origin, denoting the virtual
/// zero parity at a strand head.
///
/// # Panics
///
/// Panics if `class` is not present for the configuration's α.
pub fn input_source(cfg: &Config, class: StrandClass, i: i64) -> i64 {
    assert_class_present(cfg, class);
    let s = cfg.s() as i64;
    let p = cfg.p() as i64;
    match class {
        StrandClass::Horizontal => i - s,
        StrandClass::RightHanded | StrandClass::LeftHanded if s == 1 => i - p,
        StrandClass::RightHanded => match category(cfg, i) {
            NodeCategory::Top => i - s * p + (s * s - 1),
            NodeCategory::Central | NodeCategory::Bottom => i - (s + 1),
            NodeCategory::SingleRow => unreachable!("s == 1 handled above"),
        },
        StrandClass::LeftHanded => match category(cfg, i) {
            NodeCategory::Top | NodeCategory::Central => i - (s - 1),
            NodeCategory::Bottom => i - s * p + (s - 1) * (s - 1),
            NodeCategory::SingleRow => unreachable!("s == 1 handled above"),
        },
    }
}

/// Index `j` of the output parity `p_{i,j}` of node `i` on `class`
/// (Table II). Always greater than `i`.
///
/// # Panics
///
/// Panics if `class` is not present for the configuration's α.
pub fn output_target(cfg: &Config, class: StrandClass, i: i64) -> i64 {
    assert_class_present(cfg, class);
    let s = cfg.s() as i64;
    let p = cfg.p() as i64;
    match class {
        StrandClass::Horizontal => i + s,
        StrandClass::RightHanded | StrandClass::LeftHanded if s == 1 => i + p,
        StrandClass::RightHanded => match category(cfg, i) {
            NodeCategory::Top | NodeCategory::Central => i + s + 1,
            NodeCategory::Bottom => i + s * p - (s * s - 1),
            NodeCategory::SingleRow => unreachable!("s == 1 handled above"),
        },
        StrandClass::LeftHanded => match category(cfg, i) {
            NodeCategory::Top => i + s * p - (s - 1) * (s - 1),
            NodeCategory::Central | NodeCategory::Bottom => i + s - 1,
            NodeCategory::SingleRow => unreachable!("s == 1 handled above"),
        },
    }
}

fn assert_class_present(cfg: &Config, class: StrandClass) {
    assert!(
        cfg.classes().contains(&class),
        "strand class {class} is not present in {cfg}",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ae_blocks::StrandClass::*;

    fn cfg(a: u8, s: u16, p: u16) -> Config {
        Config::new(a, s, p).unwrap()
    }

    /// The paper's worked example (Fig 4 + Tables I/II captions + Table V):
    /// in AE(3,5,5), top node d26 is tangled with p21,26 (H), p25,26 (RH),
    /// p22,26 (LH) and creates p26,31 (H), p26,32 (RH), p26,35 (LH).
    #[test]
    fn ae355_worked_example_d26() {
        let c = cfg(3, 5, 5);
        assert_eq!(category(&c, 26), NodeCategory::Top);
        assert_eq!(input_source(&c, Horizontal, 26), 21);
        assert_eq!(output_target(&c, Horizontal, 26), 31);
        assert_eq!(input_source(&c, RightHanded, 26), 25);
        assert_eq!(output_target(&c, RightHanded, 26), 32);
        assert_eq!(input_source(&c, LeftHanded, 26), 22);
        assert_eq!(output_target(&c, LeftHanded, 26), 35);
    }

    #[test]
    fn categories_cycle_with_s() {
        let c = cfg(3, 5, 5);
        assert_eq!(category(&c, 1), NodeCategory::Top);
        assert_eq!(category(&c, 2), NodeCategory::Central);
        assert_eq!(category(&c, 4), NodeCategory::Central);
        assert_eq!(category(&c, 5), NodeCategory::Bottom);
        assert_eq!(category(&c, 6), NodeCategory::Top);
        assert_eq!(category(&cfg(2, 1, 3), 7), NodeCategory::SingleRow);
    }

    #[test]
    fn rows_and_columns() {
        let c = cfg(3, 5, 5);
        assert_eq!(row(&c, 1), 0);
        assert_eq!(row(&c, 5), 4);
        assert_eq!(row(&c, 26), 0);
        assert_eq!(column(&c, 1), 0);
        assert_eq!(column(&c, 5), 0);
        assert_eq!(column(&c, 6), 1);
        assert_eq!(column(&c, 26), 5);
    }

    /// Input and output rules must be inverses: if node h's output on class
    /// C lands at i, then node i's input on C comes from h.
    #[test]
    fn rules_are_mutually_consistent() {
        for (a, s, p) in [
            (1u8, 1u16, 0u16),
            (2, 1, 1),
            (2, 1, 4),
            (2, 2, 2),
            (2, 2, 5),
            (2, 3, 7),
            (3, 1, 1),
            (3, 1, 4),
            (3, 2, 2),
            (3, 2, 5),
            (3, 3, 3),
            (3, 4, 4),
            (3, 5, 5),
            (3, 3, 8),
        ] {
            let c = cfg(a, s, p);
            let lo = (s as i64) * (p.max(1) as i64) * 3; // past all wrap spans
            for i in lo..lo + 4 * s as i64 * p.max(1) as i64 {
                for &class in c.classes() {
                    let j = output_target(&c, class, i);
                    assert!(j > i, "{c} {class} output of {i} must advance, got {j}");
                    assert_eq!(
                        input_source(&c, class, j),
                        i,
                        "{c}: node {j} input on {class} should be {i}"
                    );
                    let h = input_source(&c, class, i);
                    assert!(h < i, "{c} {class} input of {i} must be in the past");
                    if h >= 1 {
                        assert_eq!(
                            output_target(&c, class, h),
                            i,
                            "{c}: node {h} output on {class} should be {i}"
                        );
                    }
                }
            }
        }
    }

    /// Fig 3's "α = 2, s = 1, p = 2" example: helical parities p1,3, p2,4,
    /// p3,5 … span two positions.
    #[test]
    fn single_row_helical_span_is_p() {
        let c = cfg(2, 1, 2);
        assert_eq!(output_target(&c, RightHanded, 1), 3);
        assert_eq!(output_target(&c, RightHanded, 2), 4);
        assert_eq!(input_source(&c, RightHanded, 5), 3);
        // Horizontal chain still spans 1.
        assert_eq!(output_target(&c, Horizontal, 4), 5);
    }

    #[test]
    fn near_origin_inputs_are_virtual() {
        let c = cfg(3, 2, 5);
        // Node 1's inputs all come from before the lattice.
        for &class in c.classes() {
            assert!(input_source(&c, class, 1) <= 0, "{class}");
        }
        // Far from the origin nothing is virtual.
        for &class in c.classes() {
            assert!(input_source(&c, class, 1000) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn absent_class_rejected() {
        let c = cfg(2, 2, 2);
        input_source(&c, LeftHanded, 10);
    }

    #[test]
    #[should_panic(expected = "positions start at 1")]
    fn category_of_virtual_position_panics() {
        category(&cfg(3, 2, 5), 0);
    }

    /// Every node must have exactly one input and one output edge per class;
    /// equivalently, on each class the maps i→j are injective over a window.
    #[test]
    fn outputs_are_injective_per_class() {
        use std::collections::HashSet;
        for (a, s, p) in [(2u8, 2u16, 3u16), (3, 2, 5), (3, 4, 4), (3, 5, 7)] {
            let c = cfg(a, s, p);
            for &class in c.classes() {
                let mut seen = HashSet::new();
                for i in 200..200 + 6 * s as i64 * p as i64 {
                    let j = output_target(&c, class, i);
                    assert!(seen.insert(j), "{c} {class}: target {j} hit twice");
                }
            }
        }
    }
}
