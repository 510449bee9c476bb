//! Tier-1 checks of the paper's count claims, one module per figure or
//! table: each runs its [`crate::perf::repro`] row at its experiment's
//! fixture, asserts that the row `holds`, and adds the bounds it lacks.

use crate::perf::{json::Value, repro::*};

/// `field` of the points of `c` whose `key` is `label`, in sweep order.
fn column(c: &Claim, key: &str, label: &str, field: &str) -> Vec<f64> {
    let hit = |p: &&Value| p.get(key).and_then(Value::as_str) == Some(label);
    let num = |p: &Value| p.get(field).and_then(Value::as_f64).expect("numeric field");
    c.points.iter().filter(hit).map(num).collect()
}

/// `module::test = row => |c| { checks };` defines `module::tests::test`:
/// `row` must hold, then the optional checks run with `c` bound to it.
macro_rules! claims {
    ($($module:ident::$test:ident = $row:expr $(=> |$c:ident| $check:block)?;)*) => {$(
        mod $module {
            mod tests {
                use crate::experiments::*;
                #[test]
                fn $test() {
                    let row = $row;
                    assert!(row.holds, "{} does not hold: {:?}", row.id, row.points);
                    $(let $c = &row; $check)?
                }
            }
        }
    )*};
}

claims! {
    fig3::signature_grows_candidates_shrink_with_tau = fig3(Data::med(250, 5));
    fig4::all_filters_same_results = fig4(Data::med(200, 9)) => |c| {
        let pairs = column(c, "filter", "U", "result_pairs");
        assert!(pairs[1] > 0.0, "the filters agree on no pairs at θ = 0.80");
    };
    fig5::dp_prunes_at_least_as_well_as_heuristic = fig5(Data::med(300, 15)) => |c| {
        // DP signatures are no longer than the heuristic's, ±1 pebble.
        let heur = column(c, "filter", "AU-heur", "sig_len");
        let dp = column(c, "filter", "AU-DP", "sig_len");
        for (h, d) in heur.iter().zip(&dp) {
            assert!(*d <= h + 1.0, "DP sig {d} vs heuristic {h}");
        }
    };
    fig7::filtering_power_persists_across_scales = fig7(Data::med(600, 3), 0.9, &[150, 600]);
    fig8::smaller_samples_need_more_iterations = fig8(Data::med(400, 23));
    table8::tjs_dominates_singles = table8(Data::med(150, 7)) => |c| {
        let tjs = column(c, "measure", "TJS", "f1")[0];
        assert!(tjs > 0.5, "TJS F-measure at θ = 0.70 low: {tjs}");
    };
    table9::ratios_bounded_and_high = table9(160) => |c| {
        // At least half of the 8 × 21 instances asked for at each k solve.
        for p in &c.points {
            let pairs = p.get("pairs").and_then(Value::as_f64);
            assert!(pairs >= Some(84.0), "{p:?}");
        }
    };
    table11::suggested_not_worse_than_worst = table11(Data::med(250, 17));
    table12::accuracy_reasonable_on_small_fixture = table12(Data::med(300, 19));
    table13::ours_beats_combination_on_recall = table13(Data::med(200, 29)) => |c| {
        let recall = |method| column(c, "method", method, "recall")[0];
        let (ours, combo) = (recall("TJS"), recall("Combination"));
        assert!(ours >= combo - 1e-9, "TJS recall {ours} < {combo}");
        assert!(ours > 0.5, "unified recall low: {ours}");
    };
}
