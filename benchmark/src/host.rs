//! The host stanza every output record carries, and the process's peak
//! resident set.

use std::process::Command;

/// First line of a command's stdout, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Where and how a recording was made.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Dispatched kernel tier (`ae_kernels::kernel_name`).
    pub kernels: &'static str,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse --short HEAD`, `unknown` outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Describes the current host.
    pub fn detect() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernels: ae_kernels::kernel_name(),
            rustc: first_line("rustc", &["--version"]),
            commit: first_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    /// The stanza as a JSON object, with the run's own parameters.
    pub fn to_json(&self, workload: &str, seed: u64, seconds: f64, cycles: &str) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"cycles\": {cycles}, \"nproc\": {}, \"kernels\": \"{}\", \"rustc\": \"{}\", \
             \"commit\": \"{}\"}}",
            self.nproc, self.kernels, self.rustc, self.commit
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc/self/status` is not readable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stanza_names_the_host() {
        let host = Host::detect();
        assert!(host.nproc >= 1);
        let json = host.to_json("ae_bulk", 3, 12.0, "{\"measured\": 30}");
        assert!(json.contains("\"workload\": \"ae_bulk\"") && json.contains("\"seed\": 3"));
        assert!(json.contains("\"nproc\"") && json.contains("\"kernels\""));
        assert!(peak_rss_mib() > 0.0);
    }
}
