//! Small helpers shared by the workloads: process memory, digests,
//! medians and a minimal JSON object writer (the benchmark has no
//! dependency outside this repository).

use std::fmt::Write as _;
use std::path::Path;

/// Resets the process's peak resident set (`VmHWM`) to its current RSS,
/// so the next [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad VmHWM line '{line}'"))?;
    Ok(kb / 1024.0)
}

/// Median of the process-wide `obs` histogram `name` (µs), in ms; 0 when
/// nothing was observed.
pub fn hist_median_ms(name: &str) -> f64 {
    obs::registry()
        .histograms()
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, h)| h.percentile(0.5) / 1e3)
}

/// 64-bit FNV-1a, enough to tell whether two runs wrote the same bytes.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of every regular file under `dir` (names and bytes, in name
/// order), plus the total byte count and the file count.
pub fn dir_digest(dir: &Path, h: &mut Fnv) -> Result<(u64, usize), String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_type().map(|t| t.is_file()).unwrap_or(false))
        .map(|e| e.file_name())
        .collect();
    names.sort();
    let mut bytes = 0u64;
    for name in &names {
        let data = std::fs::read(dir.join(name)).map_err(|e| e.to_string())?;
        h.update(name.to_string_lossy().as_bytes());
        h.update(&data);
        bytes += data.len() as u64;
    }
    Ok((bytes, names.len()))
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A pass/fail output check with a one-line explanation.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Self {
        Check { name: name.to_string(), ok, detail: detail.into() }
    }
}

/// Builds one flat JSON object, keys in insertion order.
#[derive(Default)]
pub struct JsonObj(String);

impl JsonObj {
    fn key(&mut self, k: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        let _ = write!(self.0, "\"{}\":", obs::json_escape(k));
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        let _ = write!(self.0, "\"{}\"", obs::json_escape(v));
        self
    }

    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.0.push_str(json);
        self
    }

    pub fn finish(mut self) -> String {
        if self.0.is_empty() {
            self.0.push('{');
        }
        self.0.push('}');
        self.0
    }
}

/// `[{"name":..,"ok":..,"detail":..}, ...]`
pub fn checks_json(checks: &[Check]) -> String {
    let items: Vec<String> = checks
        .iter()
        .map(|c| {
            let mut o = JsonObj::default();
            o.str("name", &c.name).raw("ok", if c.ok { "true" } else { "false" });
            o.str("detail", &c.detail);
            o.finish()
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// `{"name": value, ...}` from an ordered list of named numbers.
pub fn metrics_json(m: &[(String, f64)]) -> String {
    let mut o = JsonObj::default();
    for (k, v) in m {
        o.num(k, *v);
    }
    o.finish()
}
