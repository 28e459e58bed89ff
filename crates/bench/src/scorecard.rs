//! Machine-checked reproduction claims.
//!
//! A bin that regenerates a figure the paper states a number for emits one
//! [`Claim`] per number. In full mode [`record_claims`] writes the bin's
//! claims to `results/claims/<bin>.json` and regenerates
//! `results/SCORECARD.json` from every such file, so a numerics-changing
//! PR shows "no status changed" instead of arguing it in a prose table.

use std::io::Write as _;

use crate::report::{print_table, quick_mode, results_dir};

/// How our measurement stands against the paper's.
#[derive(Debug, Clone, PartialEq)]
pub enum ClaimStatus {
    /// Within tolerance of the paper's value (or stronger).
    Reproduced,
    /// Short of the paper's value by a margin EXPERIMENTS.md documents and
    /// explains; the string says where.
    KnownDeviation(String),
    /// Short of the paper's value and of any documented deviation.
    Regressed,
}

/// One number the paper states, beside ours.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Stable identifier, `<figure or section>.<what>`.
    pub id: String,
    /// The paper's value.
    pub paper_value: f64,
    /// The value this run measured.
    pub ours: f64,
    /// Share of the reference value `ours` may miss it by: fall short of
    /// an [`at_least`](Claim::at_least) claim, exceed an
    /// [`at_most`](Claim::at_most) one.
    pub tolerance: f64,
    /// The verdict.
    pub status: ClaimStatus,
}

impl Claim {
    /// A higher-is-better claim (a speedup): reproduced when `ours` is at
    /// least `paper_value × (1 − tolerance)`, regressed otherwise.
    #[must_use]
    pub fn at_least(id: &str, paper_value: f64, ours: f64, tolerance: f64) -> Self {
        let status = if ours >= paper_value * (1.0 - tolerance) {
            ClaimStatus::Reproduced
        } else {
            ClaimStatus::Regressed
        };
        Claim { id: id.to_string(), paper_value, ours, tolerance, status }
    }

    /// The lower-is-better twin of [`at_least`](Self::at_least) (an error
    /// bound): reproduced when `ours` is at most
    /// `paper_value × (1 + tolerance)`, regressed otherwise.
    #[must_use]
    pub fn at_most(id: &str, paper_value: f64, ours: f64, tolerance: f64) -> Self {
        let status = if ours <= paper_value * (1.0 + tolerance) {
            ClaimStatus::Reproduced
        } else {
            ClaimStatus::Regressed
        };
        Claim { id: id.to_string(), paper_value, ours, tolerance, status }
    }

    /// Downgrades a shortfall of an [`at_least`](Self::at_least) claim to a
    /// known deviation while `ours` holds the level EXPERIMENTS.md
    /// `documented` (to the same tolerance). A claim
    /// that is reproduced stays reproduced; one that fell below the
    /// documented level stays regressed.
    #[must_use]
    pub fn or_known_deviation(mut self, documented: f64, reason: &str) -> Self {
        if self.status == ClaimStatus::Regressed && self.ours >= documented * (1.0 - self.tolerance)
        {
            self.status = ClaimStatus::KnownDeviation(reason.to_string());
        }
        self
    }

    /// A side condition the claim carries ("… without policy
    /// degradation"): when it does not hold the claim is regressed,
    /// whatever `ours` reads.
    #[must_use]
    pub fn requiring(mut self, holds: bool) -> Self {
        if !holds {
            self.status = ClaimStatus::Regressed;
        }
        self
    }

    fn status_label(&self) -> &'static str {
        match self.status {
            ClaimStatus::Reproduced => "Reproduced",
            ClaimStatus::KnownDeviation(_) => "KnownDeviation",
            ClaimStatus::Regressed => "Regressed",
        }
    }

    /// One JSON object on one line (non-finite numbers become `null`).
    fn json(&self, bin: &str) -> String {
        let num = |v: f64| if v.is_finite() { format!("{v:.4}") } else { "null".to_string() };
        let reason = match &self.status {
            ClaimStatus::KnownDeviation(why) => format!(", \"reason\": \"{why}\""),
            _ => String::new(),
        };
        format!(
            "{{\"id\": \"{}\", \"bin\": \"{bin}\", \"paper_value\": {}, \"ours\": {}, \
             \"tolerance\": {}, \"status\": \"{}\"{reason}}}",
            self.id,
            num(self.paper_value),
            num(self.ours),
            num(self.tolerance),
            self.status_label(),
        )
    }
}

/// Prints `claims`, stores them as `results/claims/<bin>.json` and
/// rebuilds `results/SCORECARD.json` from every bin's stored claims
/// (sorted by bin, so the file does not depend on who ran last). A
/// quick-mode run records nothing: its scale (fewer configurations, the
/// `test()` preset, a sixth of the frontier's corpus) is not the
/// experiment the paper's numbers describe.
///
/// # Panics
///
/// Panics on I/O errors, like every result writer of this crate.
pub fn record_claims(bin: &str, claims: &[Claim]) {
    if quick_mode() {
        println!("\nquick mode: {} scorecard claim(s) of {bin} not evaluated", claims.len());
        return;
    }
    let rows: Vec<Vec<String>> = claims
        .iter()
        .map(|c| {
            vec![
                c.id.clone(),
                format!("{:.2}", c.paper_value),
                format!("{:.2}", c.ours),
                c.status_label().to_string(),
            ]
        })
        .collect();
    print_table("Scorecard", &["claim", "paper", "ours", "status"], &rows);

    let dir = results_dir().join("claims");
    std::fs::create_dir_all(&dir).expect("claims directory is creatable");
    let lines: Vec<String> = claims.iter().map(|c| c.json(bin)).collect();
    std::fs::write(dir.join(format!("{bin}.json")), lines.join("\n") + "\n")
        .expect("claims file writable");

    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("claims directory readable")
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    let all: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let text = std::fs::read_to_string(path).expect("claims file readable");
            text.lines().map(|l| format!("    {l}")).collect::<Vec<_>>()
        })
        .collect();
    // Written beside the target and renamed over it, so a reader (or a
    // bin finishing at the same moment) never sees half a file.
    let path = results_dir().join("SCORECARD.json");
    let tmp = results_dir().join(format!("SCORECARD.json.{bin}.tmp"));
    let mut f = std::fs::File::create(&tmp).expect("scorecard creatable");
    write!(f, "{{\n  \"claims\": [\n{}\n  ]\n}}\n", all.join(",\n")).expect("scorecard write");
    drop(f);
    std::fs::rename(&tmp, &path).expect("scorecard rename");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_follows_the_tolerance_and_the_documented_level() {
        let c = Claim::at_least("fig7.pop_vs_earlyterm", 2.1, 2.10, 0.25);
        assert_eq!(c.status, ClaimStatus::Reproduced);
        // Stronger than the paper is still reproduced.
        assert_eq!(Claim::at_least("x", 2.07, 2.74, 0.25).status, ClaimStatus::Reproduced);

        let short = Claim::at_least("fig7.pop_vs_bandit", 1.6, 1.14, 0.25);
        assert_eq!(short.status, ClaimStatus::Regressed);
        let known = short.clone().or_known_deviation(1.14, "deviation 1");
        assert_eq!(known.status, ClaimStatus::KnownDeviation("deviation 1".into()));
        // Below the documented level it is a regression again.
        let worse = Claim::at_least("fig7.pop_vs_bandit", 1.6, 0.80, 0.25)
            .or_known_deviation(1.14, "deviation 1");
        assert_eq!(worse.status, ClaimStatus::Regressed);
        // A reproduced claim is not downgraded by carrying a deviation.
        let closed =
            Claim::at_least("fig7.pop_vs_bandit", 1.6, 1.58, 0.25).or_known_deviation(1.14, "d");
        assert_eq!(closed.status, ClaimStatus::Reproduced);

        assert_eq!(c.clone().requiring(true).status, ClaimStatus::Reproduced);
        assert_eq!(c.requiring(false).status, ClaimStatus::Regressed);
    }

    #[test]
    fn an_at_most_claim_holds_up_to_its_bound() {
        let c = Claim::at_most("fig12a.max_sim_error", 0.13, 0.006, 0.0);
        assert_eq!(c.status, ClaimStatus::Reproduced);
        assert_eq!(Claim::at_most("x", 0.13, 0.13, 0.0).status, ClaimStatus::Reproduced);
        assert_eq!(Claim::at_most("x", 0.13, 0.131, 0.0).status, ClaimStatus::Regressed);
        // The tolerance widens the bound upwards.
        assert_eq!(Claim::at_most("x", 0.10, 0.12, 0.25).status, ClaimStatus::Reproduced);
        assert_eq!(Claim::at_most("x", 0.13, f64::NAN, 0.0).status, ClaimStatus::Regressed);
        assert_eq!(
            c.json("fig12a_sim_validation"),
            "{\"id\": \"fig12a.max_sim_error\", \"bin\": \"fig12a_sim_validation\", \
             \"paper_value\": 0.1300, \"ours\": 0.0060, \"tolerance\": 0.0000, \
             \"status\": \"Reproduced\"}"
        );
    }

    #[test]
    fn claims_serialise_one_per_line() {
        let known =
            Claim::at_least("a.b", 1.6, 1.14, 0.25).or_known_deviation(1.14, "EXPERIMENTS.md 1");
        assert_eq!(
            known.json("bin"),
            "{\"id\": \"a.b\", \"bin\": \"bin\", \"paper_value\": 1.6000, \"ours\": 1.1400, \
             \"tolerance\": 0.2500, \"status\": \"KnownDeviation\", \"reason\": \"EXPERIMENTS.md 1\"}"
        );
        let nan = Claim::at_least("a.c", 2.0, f64::NAN, 0.0);
        assert_eq!(nan.status, ClaimStatus::Regressed);
        assert!(nan.json("bin").contains("\"ours\": null"));
    }
}
