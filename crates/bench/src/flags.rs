//! The harness's one flag table. Every flag `repro` understands is a
//! row of [`FLAGS`]; the registry declares which rows each experiment
//! accepts, and [`Args::parse`] rejects everything else before the
//! experiment runs.

use std::path::PathBuf;
use std::str::FromStr;

use osmosis_core::Scale;
use osmosis_fabric::TopologySpec;

/// What a flag takes, and the field of [`Args`] it lands in.
pub enum Kind {
    /// No value; sets the field.
    Switch(fn(&mut Args) -> &mut bool),
    /// A file or directory, shown in usage lines under the given name.
    Path(&'static str, fn(&mut Args) -> &mut Option<PathBuf>),
    /// A non-negative integer.
    Count(fn(&mut Args) -> &mut Option<usize>),
    /// A topology spec; the one flag that may repeat.
    Topology,
}
use Kind::{Count, Path, Switch, Topology};

/// Every flag the harness accepts.
pub const FLAGS: &[(&str, Kind)] = &[
    ("--quick", Switch(|a| &mut a.quick)),
    ("--audit", Switch(|a| &mut a.audit)),
    ("--telemetry", Path("<path.jsonl>", |a| &mut a.telemetry)),
    ("--topology", Topology),
    ("--checkpoint", Path("<dir>", |a| &mut a.checkpoint)),
    ("--progress", Switch(|a| &mut a.progress)),
    ("--dir", Path("<dir>", |a| &mut a.dir)),
    ("--shards", Count(|a| &mut a.shards)),
    ("--resume", Switch(|a| &mut a.resume)),
];

/// The flags of one run, typed. A flag the experiment does not accept
/// cannot be given, so its field keeps the default.
#[derive(Default)]
pub struct Args {
    /// `--quick`: run at test scale.
    pub quick: bool,
    /// `--audit`: attach the invariant-audit battery to every run.
    pub audit: bool,
    /// `--progress`: report live progress on stderr.
    pub progress: bool,
    /// `--telemetry`: stream the telemetry plane's records to this file.
    pub telemetry: Option<PathBuf>,
    /// `--checkpoint`: keep finished sweep points here across runs.
    pub checkpoint: Option<PathBuf>,
    /// Every `--topology`, in the order given.
    pub topologies: Vec<TopologySpec>,
    /// `--dir`: the campaign directory.
    pub dir: Option<PathBuf>,
    /// `--shards`: how many shards the campaign splits into.
    pub shards: Option<usize>,
    /// `--resume`: keep the state already in `--dir`.
    pub resume: bool,
}

/// The rows of [`FLAGS`] named in `accepted`, as a usage string.
pub fn usage(accepted: &[&str]) -> String {
    let rows = FLAGS.iter().filter(|(name, _)| accepted.contains(name));
    let words: Vec<String> = rows
        .map(|(name, kind)| match kind {
            Switch(_) => name.to_string(),
            Path(what, _) => format!("{name} {what}"),
            Count(_) => format!("{name} <n>"),
            Topology => format!("{name} <spec>"),
        })
        .collect();
    words.join(" ")
}

/// Store a flag's value, refusing a second occurrence.
fn once<T>(slot: &mut Option<T>, value: T) -> Result<(), String> {
    match slot.replace(value) {
        None => Ok(()),
        Some(_) => Err("given more than once".into()),
    }
}

fn number<T: FromStr>(text: &str) -> Result<T, String> {
    text.parse().map_err(|_| "not a number".to_string())
}

impl Args {
    /// Parse `argv` against the rows of [`FLAGS`] named in `accepted`.
    /// An unknown or unaccepted flag, a missing value and an
    /// unparseable value are errors; nothing is skipped.
    pub fn parse(accepted: &[&str], argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut words = argv.iter();
        while let Some(word) = words.next() {
            let (_, kind) = FLAGS
                .iter()
                .find(|(name, _)| name == word && accepted.contains(name))
                .ok_or_else(|| format!("unknown flag `{word}`"))?;
            if let Switch(field) = kind {
                *field(&mut args) = true;
                continue;
            }
            let value = words
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{word} needs a value"))?;
            let stored = match kind {
                Switch(_) => Ok(()), // set above; takes no value
                Path(_, field) => once(field(&mut args), value.into()),
                Count(field) => number(value).and_then(|n| once(field(&mut args), n)),
                Topology => match value.parse::<TopologySpec>() {
                    Ok(spec) => {
                        args.topologies.push(spec);
                        Ok(())
                    }
                    Err(e) => Err(e.to_string()),
                },
            };
            stored.map_err(|e| format!("bad {word} {value}: {e}"))?;
        }
        Ok(args)
    }

    /// Test scale under `--quick`, else the paper's.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The one `--topology` of a study whose fabric is a single declared
    /// spec; exits 2 when more than one was given.
    pub fn topology(&self) -> Option<TopologySpec> {
        if self.topologies.len() > 1 {
            eprintln!("this study takes at most one --topology flag");
            std::process::exit(2);
        }
        self.topologies.first().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_flags_land_in_typed_fields() {
        let accepted = ["--quick", "--topology", "--shards", "--resume"];
        let argv = "--topology fat-tree:radix=16,levels=2,planes=2 --shards 3 --quick \
                    --topology dragonfly:radix=8,groups=4 --resume";
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let a = Args::parse(&accepted, &argv).expect("all accepted");
        assert!(a.quick && !a.audit);
        assert_eq!(a.scale(), Scale::Quick);
        assert_eq!(a.topologies.len(), 2);
        assert_eq!((a.shards, a.resume), (Some(3), true));
        assert_eq!(
            usage(&["--telemetry", "--quick"]),
            "--quick --telemetry <path.jsonl>"
        );
    }
}
