//! The workload registry: Table II of the paper.

use crate::apps;
use gpu_sim::kernel::App;

/// Problem-size scaling of a workload.
///
/// `Standard` targets ~40–100 µs of simulated execution on the full 64-CU
/// GPU (`repro --full`); `Quick` is the default reduced preset's size and
/// the one unit tests and fast benches use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Reduced size: the default preset, tests and quick benches.
    Quick,
    /// Paper-platform size (`repro --full`).
    Standard,
}

impl Scale {
    /// Multiplies a baseline workgroup count by the scale factor.
    pub fn workgroups(self, base: u32) -> u32 {
        match self {
            Scale::Quick => (base / 2).max(16),
            Scale::Standard => base,
        }
    }

    /// Scales a kernel's outer-loop trip count (per-wavefront work).
    /// `Quick` shortens runs ~3x without touching the phase structure,
    /// which lives in the inner loop segments.
    pub fn trips(self, base: u16) -> u16 {
        match self {
            Scale::Quick => (base / 3).max(2),
            Scale::Standard => base,
        }
    }
}

/// Workload category, as in Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// ECP HPC proxy applications.
    Hpc,
    /// Machine-intelligence kernels (DeepBench / DNNMark).
    Mi,
}

/// A registered workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Table II name.
    pub name: &'static str,
    /// HPC or MI.
    pub category: Category,
    /// Number of unique kernels (Table II parenthesized counts).
    pub unique_kernels: usize,
    /// Builder.
    pub build: fn(Scale) -> App,
}

/// All sixteen Table II workloads, paper order (HPC then MI).
pub fn all() -> Vec<Workload> {
    vec![
        Workload { name: "comd", category: Category::Hpc, unique_kernels: 1, build: apps::comd },
        Workload { name: "hpgmg", category: Category::Hpc, unique_kernels: 1, build: apps::hpgmg },
        Workload {
            name: "lulesh",
            category: Category::Hpc,
            unique_kernels: 27,
            build: apps::lulesh,
        },
        Workload {
            name: "minife",
            category: Category::Hpc,
            unique_kernels: 3,
            build: apps::minife,
        },
        Workload {
            name: "xsbench",
            category: Category::Hpc,
            unique_kernels: 1,
            build: apps::xsbench,
        },
        Workload { name: "hacc", category: Category::Hpc, unique_kernels: 2, build: apps::hacc },
        Workload {
            name: "quickS",
            category: Category::Hpc,
            unique_kernels: 1,
            build: apps::quicks,
        },
        Workload {
            name: "pennant",
            category: Category::Hpc,
            unique_kernels: 5,
            build: apps::pennant,
        },
        Workload { name: "snapc", category: Category::Hpc, unique_kernels: 1, build: apps::snapc },
        Workload { name: "dgemm", category: Category::Mi, unique_kernels: 1, build: apps::dgemm },
        Workload { name: "BwdBN", category: Category::Mi, unique_kernels: 1, build: apps::bwd_bn },
        Workload {
            name: "BwdPool",
            category: Category::Mi,
            unique_kernels: 1,
            build: apps::bwd_pool,
        },
        Workload {
            name: "BwdSoft",
            category: Category::Mi,
            unique_kernels: 1,
            build: apps::bwd_soft,
        },
        Workload { name: "FwdBN", category: Category::Mi, unique_kernels: 1, build: apps::fwd_bn },
        Workload {
            name: "FwdPool",
            category: Category::Mi,
            unique_kernels: 1,
            build: apps::fwd_pool,
        },
        Workload {
            name: "FwdSoft",
            category: Category::Mi,
            unique_kernels: 1,
            build: apps::fwd_soft,
        },
    ]
}

/// Builds every workload at `scale`.
pub fn suite(scale: Scale) -> Vec<App> {
    all().iter().map(|w| (w.build)(scale)).collect()
}

/// Builds one workload by its Table II name.
pub fn by_name(name: &str, scale: Scale) -> Option<App> {
    all().iter().find(|w| w.name == name).map(|w| (w.build)(scale))
}

/// Table II rows: `(name, category, unique kernels)`.
pub fn table2() -> Vec<(&'static str, Category, usize)> {
    all().iter().map(|w| (w.name, w.category, w.unique_kernels)).collect()
}

/// Every registered workload name, paper order.
pub fn names() -> Vec<&'static str> {
    all().iter().map(|w| w.name).collect()
}

/// The registered name closest (case-insensitive edit distance) to a
/// misspelled `query` — the "did you mean" hint for unknown-workload
/// errors. `None` when nothing is plausibly close (distance > half the
/// query length).
pub fn nearest(query: &str) -> Option<&'static str> {
    let q = query.to_ascii_lowercase();
    let best = all()
        .iter()
        .map(|w| (edit_distance(&q, &w.name.to_ascii_lowercase()), w.name))
        .min_by_key(|&(d, _)| d)?;
    let cutoff = (query.chars().count() / 2).max(2);
    (best.0 <= cutoff).then_some(best.1)
}

/// Levenshtein distance (two-row dynamic program; names are short).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_workloads_nine_hpc_seven_mi() {
        let all = all();
        assert_eq!(all.len(), 16);
        assert_eq!(all.iter().filter(|w| w.category == Category::Hpc).count(), 9);
        assert_eq!(all.iter().filter(|w| w.category == Category::Mi).count(), 7);
    }

    #[test]
    fn every_workload_builds_and_validates() {
        for w in all() {
            for scale in [Scale::Quick, Scale::Standard] {
                let app = (w.build)(scale);
                assert_eq!(app.name, w.name);
                for k in &app.kernels {
                    k.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
                }
            }
        }
    }

    #[test]
    fn unique_kernel_counts_match_table2() {
        for w in all() {
            let app = (w.build)(Scale::Quick);
            assert_eq!(
                app.unique_kernels(),
                w.unique_kernels,
                "{}: table II says {} unique kernels",
                w.name,
                w.unique_kernels
            );
        }
    }

    #[test]
    fn by_name_round_trips() {
        assert!(by_name("xsbench", Scale::Quick).is_some());
        assert!(by_name("dgemm", Scale::Quick).is_some());
        assert!(by_name("nonexistent", Scale::Quick).is_none());
    }

    #[test]
    fn nearest_suggests_plausible_names() {
        assert_eq!(nearest("xsbnch"), Some("xsbench"));
        assert_eq!(nearest("Dgemm"), Some("dgemm"));
        assert_eq!(nearest("fwdpool"), Some("FwdPool"));
        assert_eq!(nearest("zzzzzzzzzzzz"), None);
        assert_eq!(names().len(), 16);
    }

    #[test]
    fn scaling_changes_workgroup_counts() {
        let q = by_name("comd", Scale::Quick).unwrap();
        let s = by_name("comd", Scale::Standard).unwrap();
        let wgs = |a: &gpu_sim::kernel::App| a.kernels.iter().map(|k| k.workgroups).sum::<u32>();
        assert!(wgs(&q) < wgs(&s));
    }
}
