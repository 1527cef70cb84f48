//! Human-readable run reports: the result only. Telemetry (stage times,
//! SAT / FRAIG / governor / memo counters, events) is rendered once, by
//! [`crate::TelemetrySnapshot`]'s `Display` and `to_json`.

use std::fmt;

use crate::{EcoResult, PartialResult, TargetPatch};

/// One `target <- f(base)  [size gates]` line per patch.
fn patch_lines(f: &mut fmt::Formatter<'_>, patches: &[TargetPatch]) -> fmt::Result {
    for p in patches {
        writeln!(
            f,
            "  {} <- f({})  [{} gates]",
            p.target,
            p.base.join(", "),
            p.size
        )?;
    }
    Ok(())
}

/// A displayable summary of an [`EcoResult`]: the totals (with the cost
/// optimization's before/after) and one line per patch, as the CLI
/// prints it.
///
/// # Examples
///
/// ```
/// use eco_core::{EcoEngine, EcoInstance, EcoOptions, Report};
/// use eco_netlist::{parse_verilog, WeightTable};
///
/// # let faulty = parse_verilog(
/// #     "module f (a, b, t, y); input a, b, t; output y; and g (y, t, b); endmodule")?;
/// # let golden = parse_verilog(
/// #     "module g (a, b, y); input a, b; output y; wire w; xor g0 (w, a, b);
/// #      and g1 (y, w, b); endmodule")?;
/// # let inst = EcoInstance::from_netlists(
/// #     "r", &faulty, &golden, vec!["t".into()], &WeightTable::new(1))?;
/// let result = EcoEngine::new(inst, EcoOptions::default()).run()?;
/// let text = Report(&result).to_string();
/// assert!(text.contains("cost"));
/// assert!(text.contains("t <-"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Report<'a>(pub &'a EcoResult);

impl fmt::Display for Report<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        writeln!(
            f,
            "patched {} target(s): cost {} (optimize {} -> {}), size {} AND gates{}",
            r.patches.len(),
            r.cost,
            r.optimize_delta.0,
            r.optimize_delta.1,
            r.size,
            if r.localization_fallback {
                " (localization fallback)"
            } else {
                ""
            }
        )?;
        patch_lines(f, &r.patches)
    }
}

/// A displayable summary of a degraded run's [`PartialResult`]: the
/// binding limit, one line per cluster with its diagnosis, and the
/// patches that did complete.
pub struct PartialReport<'a>(pub &'a PartialResult);

impl fmt::Display for PartialReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.0;
        writeln!(f, "PARTIAL result: {}", p.reason)?;
        for (i, c) in p.clusters.iter().enumerate() {
            writeln!(
                f,
                "  cluster {i} [{}]: {}",
                c.targets.join(", "),
                c.diagnosis
            )?;
        }
        writeln!(
            f,
            "completed {} patch(es): cost {}, size {} AND gates (unverified)",
            p.patches.len(),
            p.cost,
            p.size
        )?;
        patch_lines(f, &p.patches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EcoEngine, EcoInstance, EcoOptions};
    use eco_netlist::{parse_verilog, WeightTable};

    #[test]
    fn report_mentions_every_patch() {
        let faulty = parse_verilog(
            "module f (a, t1, t2, y, z); input a, t1, t2; output y, z; \
             buf g1 (y, t1); and g2 (z, t2, a); endmodule",
        )
        .expect("faulty");
        let golden = parse_verilog(
            "module g (a, y, z); input a; output y, z; \
             not g1 (y, a); buf g2 (z, a); endmodule",
        )
        .expect("golden");
        let inst = EcoInstance::from_netlists(
            "rep",
            &faulty,
            &golden,
            vec!["t1".into(), "t2".into()],
            &WeightTable::new(1),
        )
        .expect("instance");
        let result = EcoEngine::new(inst, EcoOptions::default())
            .run()
            .expect("ok");
        let text = Report(&result).to_string();
        assert!(text.contains("t1 <-"), "{text}");
        assert!(text.contains("t2 <-"), "{text}");
    }
}
