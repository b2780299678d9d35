//! The paper's evaluation claims, each stated once. A claim reads the
//! result its figure already renders and counts, over that figure's
//! traces or cells, how many it held in. An id is `<experiment>.<name>`:
//! the experiment's `render` ends with one `claim <id>: held <k> of <n>`
//! line per claim, so `edm-exp fig6` alone and the fig6 section of
//! `edm-exp all` print the same line. `tests/paper_shapes.rs` asserts the
//! list at small scale, and EXPERIMENTS.md cites it by id.

use edm_cluster::RunReport;

use super::fig1::TraceWear;
use super::fig3::{Point, Series};
use super::fig56::Matrix;
use super::fig8::FIG8_POLICIES;
use super::reliability::Reliability;
use crate::runner::Cell;

/// How many of a claim's traces or cells it held in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    pub held: usize,
    pub of: usize,
}

impl Verdict {
    fn count(checks: impl IntoIterator<Item = bool>) -> Verdict {
        let checks: Vec<bool> = checks.into_iter().collect();
        let held = checks.iter().filter(|&&ok| ok).count();
        Verdict {
            held,
            of: checks.len(),
        }
    }
}

/// The result an experiment renders, which its claims read.
#[derive(Clone, Copy)]
pub enum Record<'a> {
    Fig1(&'a [TraceWear]),
    Fig3(&'a [Series]),
    /// The report matrix and the cells the figure renders from it.
    Matrix(&'a Matrix, &'a [Cell]),
    Reliability(&'a Reliability),
}

/// One (trace, cluster size)'s reports, by policy name.
pub type Reports<'a> = dyn Fn(&str) -> &'a RunReport + 'a;

/// A claim's predicate and what it is counted over.
pub enum Holds {
    /// Over Fig. 1's traces, which the claim may compare.
    Fig1(fn(&[TraceWear]) -> Verdict),
    /// Per Fig. 3 series; `None` where the claim does not apply.
    Fig3(fn(&Series) -> Option<bool>),
    /// Per (trace, cluster size) of the figure's cells.
    Pair(for<'a> fn(&Reports<'a>) -> bool),
    Reliability(fn(&Reliability) -> bool),
}

pub struct Claim {
    pub id: &'static str,
    /// The paper's sentence, and the bound it is read with.
    pub paper: &'static str,
    pub holds: Holds,
}

impl Claim {
    /// The claim's verdict on `record`; `0 of 0` when the record is not
    /// the kind the claim reads.
    pub fn verdict(&self, record: Record) -> Verdict {
        match (&self.holds, record) {
            (Holds::Fig1(f), Record::Fig1(traces)) => f(traces),
            (Holds::Fig3(f), Record::Fig3(series)) => Verdict::count(series.iter().filter_map(f)),
            (Holds::Pair(f), Record::Matrix(m, cells)) => {
                // A figure lists the same policies for every (trace, size),
                // so the cells of its first policy are its pairs.
                let first = cells.first().map(|c| &c.policy);
                let pairs = cells.iter().filter(|c| Some(&c.policy) == first);
                Verdict::count(pairs.map(|c| f(&move |policy| m.report(&c.trace, policy, c.osds))))
            }
            (Holds::Reliability(f), Record::Reliability(r)) => Verdict::count([f(r)]),
            _ => Verdict::default(),
        }
    }
}

/// Every claim of the paper's evaluation the reproduction checks.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "fig1.wear-variance",
        paper: "§II: Baseline wears SSDs unevenly (erase RSD > 0.05 on every trace)",
        holds: Holds::Fig1(|traces| Verdict::count(traces.iter().map(|t| t.erase_rsd() > 0.05))),
    },
    Claim {
        id: "fig1.skewed-vary-most",
        paper: "§II: home02 and lair62 vary more widely than deasna",
        holds: Holds::Fig1(|traces| {
            let rsd = |n| Some(traces.iter().find(|t| t.trace == n)?.erase_rsd());
            let deasna = rsd("deasna");
            Verdict::count(["home02", "lair62"].map(|t| deasna.is_some() && rsd(t) > deasna))
        }),
    },
    Claim {
        id: "fig3.eq3-fits-skewed",
        paper: "§III.B.1: on the real traces Eq. 3 (σ = 0.28) fits u_r better than Eq. 2",
        holds: Holds::Fig3(|s| (s.workload != "random").then(|| eq3_fits_better(s))),
    },
    Claim {
        id: "fig3.eq2-fits-random",
        paper: "§III.B.1: on the uniform random workload Eq. 2 fits u_r better than Eq. 3",
        holds: Holds::Fig3(|s| (s.workload == "random").then(|| !eq3_fits_better(s))),
    },
    Claim {
        id: "fig5.hdf-beats-baseline",
        paper: "§V.B: EDM-HDF's aggregate throughput exceeds Baseline's",
        holds: Holds::Pair(|r| {
            r("EDM-HDF").throughput_ops_per_sec() > r("Baseline").throughput_ops_per_sec()
        }),
    },
    Claim {
        id: "fig6.hdf-le-baseline",
        paper: "§V.C: EDM-HDF reduces the aggregate erase count vs Baseline in all cases",
        holds: Holds::Pair(|r| r("EDM-HDF").aggregate_erases() <= r("Baseline").aggregate_erases()),
    },
    Claim {
        id: "fig6.hdf-cdf-cmt",
        paper: "§V.C: aggregate erases order EDM-HDF < EDM-CDF < CMT",
        holds: Holds::Pair(|r| {
            let erases = |policy| r(policy).aggregate_erases();
            erases("EDM-HDF") < erases("EDM-CDF") && erases("EDM-CDF") < erases("CMT")
        }),
    },
    Claim {
        id: "fig6.cdf-within-6pct",
        paper: "§V.C: EDM-CDF adds at most 6 % erases over Baseline",
        holds: Holds::Pair(|r| {
            r("EDM-CDF").aggregate_erases() as f64 <= 1.06 * r("Baseline").aggregate_erases() as f64
        }),
    },
    Claim {
        id: "fig7.hdf-below-baseline",
        paper: "§V.D: EDM-HDF settles below Baseline's response time (whole-run mean)",
        holds: Holds::Pair(|r| r("EDM-HDF").mean_response_us < r("Baseline").mean_response_us),
    },
    Claim {
        id: "fig7.cdf-tracks-baseline",
        paper: "§V.D: EDM-CDF barely perturbs response time (whole-run mean within 8 %)",
        holds: Holds::Pair(|r| {
            (r("EDM-CDF").mean_response_us / r("Baseline").mean_response_us - 1.0).abs() < 0.08
        }),
    },
    Claim {
        id: "fig8.cmt-cdf-hdf",
        paper: "§V.E: CMT moves the most objects, then EDM-CDF, then EDM-HDF",
        holds: Holds::Pair(|r| {
            let moved = |policy| r(policy).moved_objects;
            moved("CMT") > moved("EDM-CDF") && moved("EDM-CDF") > moved("EDM-HDF")
        }),
    },
    Claim {
        id: "fig8.moved-fraction",
        paper: "§V.E: a migrating system moves ~1 % of all objects (read: at most 1 %)",
        holds: Holds::Pair(|r| FIG8_POLICIES.iter().all(|q| r(q).moved_fraction() <= 0.01)),
    },
    Claim {
        id: "reliability.between-above-within",
        paper: "§III.D: uneven groups wear apart, each balanced inside (between RSD > within RSD)",
        holds: Holds::Reliability(|r| r.between_group_rsd() > r.max_within_rsd()),
    },
];

/// Every claim of `experiment` with its verdict on `record`.
pub fn verdicts(experiment: &str, record: Record) -> Vec<(&'static Claim, Verdict)> {
    CLAIMS
        .iter()
        .filter(|c| c.id.split('.').next() == Some(experiment))
        .map(|c| (c, c.verdict(record)))
        .collect()
}

/// The `claim <id>: held <k> of <n>` lines an experiment's section ends with.
pub fn render(experiment: &str, record: Record) -> String {
    verdicts(experiment, record)
        .into_iter()
        .map(|(c, v)| format!("claim {}: held {} of {}\n", c.id, v.held, v.of))
        .collect()
}

/// Whether Eq. 3 is closer than Eq. 2 to the measured u_r, in summed
/// absolute error over the points at u ≤ 85 % (the range §III.B.1 claims
/// the fit for).
fn eq3_fits_better(s: &Series) -> bool {
    let fitted = s.points.iter().filter(|p| p.utilization <= 0.85 + 1e-9);
    let err = |eq: fn(&Point) -> f64| -> f64 {
        fitted.clone().map(|p| (eq(p) - p.measured_ur).abs()).sum()
    };
    err(|p| p.eq3_ur) < err(|p| p.eq2_ur)
}

#[cfg(test)]
mod tests {
    use super::CLAIMS;

    fn read(rel: &str) -> String {
        let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// EXPERIMENTS.md against the code and the record, reading files
    /// only: it cites every claim and no other, and every line it pastes
    /// (a ```` ```text ```` block line or a `` `claim …` `` quote) is a
    /// line of `experiments_full.txt`.
    #[test]
    fn experiments_md_cites_every_claim_and_pastes_the_record() {
        let doc = read("EXPERIMENTS.md");
        let record = read("experiments_full.txt");
        let printed: Vec<&str> = record.lines().collect();
        let mut pasted: Vec<&str> = Vec::new();
        let mut in_text = false;
        for line in doc.lines() {
            match line {
                "```text" => in_text = true,
                "```" => in_text = false,
                _ if in_text => pasted.push(line),
                _ => {}
            }
        }
        pasted.extend(doc.match_indices("`claim ").map(|(at, _)| {
            let quote = &doc[at + 1..];
            &quote[..quote.find('`').expect("closing backtick")]
        }));
        let mut cited: Vec<&str> = Vec::new();
        for line in pasted {
            assert!(printed.contains(&line), "not in the record: {line:?}");
            if let Some(id) = line
                .strip_prefix("claim ")
                .and_then(|l| l.split(':').next())
            {
                cited.push(id);
            }
        }
        for claim in CLAIMS {
            assert!(
                cited.contains(&claim.id),
                "EXPERIMENTS.md never cites {}",
                claim.id
            );
        }
        for id in cited {
            assert!(
                CLAIMS.iter().any(|c| c.id == id),
                "EXPERIMENTS.md cites unknown {id}"
            );
        }
    }
}
