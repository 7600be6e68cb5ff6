//! What the benchmark records about the machine and the process it ran
//! on. Everything is read from `/proc` or from a tool's `--version`; a
//! value that cannot be read is reported as "unknown", never guessed.

use std::process::Command;

use obs::json::Json;

use crate::json::{num, obj, text};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let content = std::fs::read_to_string(path).ok()?;
    content.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name.trim() == key).then(|| value.trim().to_string())
    })
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when `/proc` is
/// not there to read.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process so far, all threads. The
/// kernel counts in ticks of 1/100 s on every Linux this runs on.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields 14 and 15 are
    // the 12th and 13th after its closing parenthesis.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |ix: usize| {
        fields
            .get(ix)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

fn tool_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance block of the result file.
pub fn describe() -> Json {
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok());
    obj([
        ("nproc", num(nproc() as f64)),
        (
            "cpu_model",
            text(&proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into())),
        ),
        ("rustc", text(&tool_output("rustc", &["--version"]))),
        (
            "git_commit",
            text(&tool_output("git", &["rev-parse", "HEAD"])),
        ),
        ("loadavg_at_start", loadavg.map_or(Json::Null, num)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_on_linux() {
        assert!(nproc() >= 1);
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(cpu_seconds() >= 0.0);
        }
    }

    #[test]
    fn describe_has_every_provenance_key() {
        let d = describe();
        for key in [
            "nproc",
            "cpu_model",
            "rustc",
            "git_commit",
            "loadavg_at_start",
        ] {
            assert!(d.get(key).is_some(), "{key}");
        }
    }
}
