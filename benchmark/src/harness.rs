//! Arguments, order statistics, spans, JSON, and `/proc` readings.

use std::collections::hash_map::DefaultHasher;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Seed used when `--seed` is not given (the paper's PODC 2015 date).
pub const DEFAULT_SEED: u64 = 20_150_721;

/// Parsed command line of either benchmark binary.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--workload`.
    pub workload: String,
    /// `--seed`: drives the §5 permutation and the probe corpus only.
    pub seed: u64,
    /// `--seconds`: length of the measured phase.
    pub seconds: f64,
    /// `--passes`: run exactly this many measured passes instead of
    /// measuring for `--seconds` (smoke tests, exact reproduction).
    pub passes: Option<usize>,
    /// `--out`: append the result line, tagged with workload and seed, to
    /// this file (input of `--compare`).
    pub out: Option<PathBuf>,
    /// `--child`: internal, see `bench_e2e`.
    pub child: Option<String>,
}

impl Args {
    /// Parse `std::env::args`. `--trace [0|1]` is accepted and ignored:
    /// `run.sh` picks the binary from it.
    ///
    /// # Errors
    ///
    /// An unknown flag, a missing or malformed value, or no `--workload`.
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            passes: None,
            out: None,
            child: None,
        };
        let mut it = argv.skip(1).peekable();
        while let Some(flag) = it.next() {
            if flag == "--trace" {
                if it.peek().is_some_and(|v| v == "0" || v == "1") {
                    it.next();
                }
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("a number"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad("between 0 and 600"));
                    }
                }
                "--passes" => {
                    let n: usize = value.parse().map_err(|_| bad("a whole number"))?;
                    if n == 0 {
                        return Err(bad("at least 1"));
                    }
                    args.passes = Some(n);
                }
                "--out" => args.out = Some(PathBuf::from(value)),
                "--child" => args.child = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

/// Refuse to run on a single core: the `parallel2`/`pardpor2` cells would
/// time two workers sharing one core and report it as a parallel number
/// (the defect of every `parallel_*` row in `BENCH_explore.json`).
///
/// # Errors
///
/// Fewer than two cores are available to this process.
pub fn require_two_cores() -> Result<usize, String> {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 2 {
        return Err(format!(
            "this benchmark runs 2-thread cells and needs >= 2 cores, found {cores}; \
             refusing to emit single-core numbers for the parallel engines"
        ));
    }
    Ok(cores)
}

/// `splitmix64`: the benchmark's only randomness, so inputs depend on
/// `--seed` and nothing else.
#[derive(Clone, Debug)]
pub struct Rng(pub u64);

impl Rng {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut pi: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            pi.swap(i, self.below(i + 1));
        }
        pi
    }
}

/// The `q`-quantile (`0..=1`) of `xs` by linear interpolation between
/// order statistics; `NaN` for an empty slice.
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A fixed piece of work of the same kind the checker spends its time on
/// (SipHash-ing 128-bit keys into a `HashSet`, then looking them up),
/// timed right before and after every pass.
///
/// The development host's speed drifts by ±15 % for tens of seconds at a
/// time, and the drift hits this kernel and the cells alike: a pass's
/// time divided by the kernel's varies 2–3 % between runs where the
/// pass's time alone varies 7–11 % (`README.md`, *Noise*). The kernel is
/// benchmark code, so it is the same on both sides of any comparison.
#[derive(Debug, Default)]
pub struct ReferenceKernel {
    set: std::collections::HashSet<u128, std::hash::BuildHasherDefault<DefaultHasher>>,
}

impl ReferenceKernel {
    /// Rounds of insert-then-look-up per run.
    const ROUNDS: usize = 6;
    /// Keys per round (the set stays ~1 MiB, so it does not set the
    /// workload's peak RSS).
    const KEYS: usize = 30_000;

    /// Run the kernel once; its wall-clock in milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut rng = Rng(0x5EED);
        for _ in 0..Self::ROUNDS {
            self.set.clear();
            for _ in 0..Self::KEYS {
                let x = rng.next_u64();
                self.set.insert(u128::from(x) << 64 | u128::from(x >> 3));
                std::hint::black_box(self.set.contains(&u128::from(x >> 5)));
            }
        }
        std::hint::black_box(self.set.len());
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Peak resident set of this process (`VmHWM`) in MiB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One harness span: a timed interval around a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// `workload`, `pass`, `cell`, a phase (`build`, `check`, …) or a
    /// probe batch (`probe:<metric>`).
    pub name: String,
    /// Cell the span belongs to (empty above cell level).
    pub cell: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; `0` while open.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. Disabled, it records nothing and
/// [`Tracer::scope`] is a plain call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    open: Vec<usize>,
    cell: String,
    /// Every span begun so far, in begin order (a span's id is its index).
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            t0: Instant::now(),
            open: Vec::new(),
            cell: String::new(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    #[must_use]
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name`, child of the innermost open
    /// span. A span named `cell:<x>` sets the cell field of itself and
    /// everything beneath it.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let outer_cell = self.cell.clone();
        let name = match name.strip_prefix("cell:") {
            Some(cell) => {
                self.cell = cell.to_string();
                "cell"
            }
            None => name,
        };
        let id = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name: name.to_string(),
            cell: self.cell.clone(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        self.cell = outer_cell;
        out
    }

    /// Number of spans currently open.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close every span opened beyond `depth` — the spans a panic that
    /// was caught further up left open.
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.open.len() > depth {
            let id = self.open.pop().expect("len > depth >= 0");
            self.spans[id].end_ns = now;
        }
        if depth == 0 {
            self.cell.clear();
        }
    }

    /// Milliseconds of every closed span named `name` under cell `cell`.
    #[must_use]
    pub fn durations_ms(&self, cell: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.cell == cell && s.name == name && s.end_ns != 0)
            .map(Span::ms)
            .collect()
    }

    /// The spans as JSON lines: `id`, `parent` (`null` for the root),
    /// `name`, `workload`, `cell`, `start_ns`, `end_ns`.
    #[must_use]
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"workload\": {}, \
                 \"cell\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                json_str(&s.name),
                json_str(workload),
                json_str(&s.cell),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// `s` as a JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One named measurement of the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The contract's result line:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
#[must_use]
pub fn result_line(attempted: u64, failed: u64, correct: bool, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // A non-finite value has no JSON form; it can only come from a
        // metric with no samples, which `correct` already reports.
        // (`+ 0.0` turns the `-0.0` of an empty sum into `0`.)
        let value = if m.value.is_finite() {
            m.value + 0.0
        } else {
            0.0
        };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(m.name),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

/// `benchmark/out/`: snapshots of the split cells and the span files.
#[must_use]
pub fn out_dir() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Print the result line as the last line of the run and, with `--out`,
/// append it to that file.
///
/// # Errors
///
/// The `--out` file cannot be written.
pub fn emit_result(
    args: &Args,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<(), String> {
    let line = result_line(attempted, failed, failed == 0, metrics);
    if let Some(path) = &args.out {
        append_result(path, &args.workload, args.seed, &line)
            .map_err(|e| format!("--out {}: {e}", path.display()))?;
    }
    println!("{line}");
    Ok(())
}

/// Append `line`, tagged with its workload and seed, to `path`.
fn append_result(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    line: &str,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        f,
        "{{\"workload\": {}, \"seed\": {seed}, \"result\": {line}}}",
        json_str(workload)
    )
}

/// A parsed JSON value (numbers as `f64`; objects keep key order).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// any number
    Num(f64),
    /// a string
    Str(String),
    /// an array
    Arr(Vec<Json>),
    /// an object
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document.
    ///
    /// # Errors
    ///
    /// Malformed input, with the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    /// Member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => &[],
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(kv) => kv,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            true
        } else {
            false
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            None => self.err("unexpected end"),
            Some(b'{') => {
                self.i += 1;
                let mut kv = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}") {
                        break;
                    }
                    if !kv.is_empty() && !self.eat(",") {
                        return self.err("expected `,`");
                    }
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return self.err("expected `:`");
                    }
                    kv.push((key, self.value()?));
                }
                Ok(Json::Obj(kv))
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]") {
                        break;
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return self.err("expected `,`");
                    }
                    items.push(self.value()?);
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map_or_else(|| self.err("expected a value"), |n| Ok(Json::Num(n)))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return self.err("expected a string");
        }
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).or_else(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'u') => {
                            let hex = self.s.get(self.i..self.i + 4);
                            let c = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32);
                            let Some(c) = c else {
                                return self.err("bad \\u escape");
                            };
                            self.i += 4;
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        Some(c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        _ => return self.err("bad escape"),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_a_result_line() {
        let line = result_line(
            7,
            0,
            true,
            &[Metric {
                name: "verdict_ms",
                value: 12.5,
                unit: "ms",
            }],
        );
        let v = Json::parse(&line).expect("parses");
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(7.0));
        let m = v.get("metrics").and_then(|m| m.get("verdict_ms"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(12.5)
        );
        assert!(Json::parse("{\"a\": [1, 2,, 3]}").is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn same_seed_same_permutation() {
        let a = Rng(9).permutation(8);
        assert_eq!(a, Rng(9).permutation(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn spans_nest_and_carry_their_cell() {
        let mut tr = Tracer::on();
        tr.scope("pass", |tr| {
            tr.scope("cell:a.b", |tr| tr.scope("check", |_| ()));
        });
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.spans[2].cell, "a.b");
        assert_eq!(tr.spans[1].name, "cell");
        assert_eq!(tr.spans[0].cell, "");
    }
}
