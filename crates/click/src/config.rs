//! Parser for the Click configuration language subset.
//!
//! Grammar (a pragmatic subset of Click's):
//!
//! ```text
//! config      := (statement ';')*
//! statement   := declaration | connection
//! declaration := NAME "::" CLASS [ '(' args ')' ]
//! connection  := endpoint ( [port] "->" [port] endpoint )+
//! endpoint    := NAME | CLASS '(' args ')' | CLASS      (anonymous)
//! port        := '[' NUMBER ']'
//! ```
//!
//! `//` comments run to end of line. Anonymous elements get synthesized
//! names (`Class@3`). Arguments are passed verbatim to element
//! constructors (nested parentheses are balanced, commas are the
//! element's business).

use crate::graph::Graph;
use crate::registry::Registry;
use crate::runtime::driver::Router;
use crate::runtime::regime::Regime;
use crate::ConfigError;

/// The runtime knobs — the one struct that declares them.
///
/// The pseudo-element statement `RuntimeConfig(batch_size 64, workers 4,
/// ring_depth 512, poll_burst 32, nic_batch 16, pool_slots 4096,
/// slot_size 2048, telemetry cycles);` parses into it (it declares no
/// element and may not be connected), `RouterBuilder` holds one and its
/// setters write through, and [`Router::configured`] and
/// [`crate::runtime::mt::run_graph`] consume it. Keys take `key value` or
/// `key=value` form, comma-separated.
/// Every value must be a positive integer except `telemetry`, which takes
/// `off`, `on` (counters only) or `cycles` (counters plus per-element
/// cycle accounting), `regime`, which takes `pipeline` or `pull`, and
/// `slo`, which takes a compact `/`-separated objective spec
/// (`slo p99us:5000/loss:0.01/floor:1000000`), and
/// `trace_sample`/`interval_ms`, where `0` (the default) means "off" /
/// "interval clock off". Repeated `RuntimeConfig` statements apply in
/// order (later wins per key).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Dispatch batch size `kp` of every [`Router`], and the size of the
    /// [`PacketBatch`](crate::element::PacketBatch)es carried across core
    /// boundaries.
    pub batch_size: usize,
    /// Packets a device moves per quantum — a `FromDevice` poll and a
    /// `ToDevice` pull alike, unless the element's own arguments pin one
    /// — and per inter-core ring interaction (rounded to whole batches);
    /// `None` (the default, and what an absent `poll_burst` key means)
    /// follows `kp` — the paper tunes one batching knob, not one per
    /// device.
    pub poll_burst: Option<usize>,
    /// Capacity of each inter-core SPSC ring, in batches. It also sets
    /// every ring's credit window: whoever fills a ring — the dispatcher,
    /// or the previous pipeline stage — may have at most `ring_depth *
    /// batch_size` packets outstanding toward its worker; an exhausted
    /// window stalls the filler (`MtReport::credit_stalls`) instead of
    /// dropping.
    pub ring_depth: usize,
    /// Worker cores of a multi-threaded run.
    pub workers: usize,
    /// Slots in each packet-arena pool [`Router::configured`] attaches to
    /// every poolable element (`FromDevice`, `InfiniteSource`,
    /// `SpecSource`) that has none; `0` leaves sources heap-backed.
    pub pool_slots: usize,
    /// Bytes per arena slot (headroom + payload + tailroom).
    pub slot_size: usize,
    /// Telemetry level of every router (each worker gets its own shard;
    /// shards merge into `MtReport::telemetry` at join).
    pub telemetry: rb_telemetry::TelemetryLevel,
    /// Path-trace sampling interval (`trace_sample 64` stamps every
    /// 64th sourced packet and follows it across element dispatches and
    /// ring hops); `0` disables tracing. Each worker's tracer records as
    /// its worker index; the dispatcher/merger thread as core `workers`.
    pub trace_sample: u64,
    /// Multi-threaded scheduling regime (`regime pipeline|pull`).
    pub regime: Regime,
    /// NIC batching factor `kn` of every device element's descriptor
    /// ring (`nic_batch 16`): writeback + doorbell cost is charged once
    /// per `kn` descriptors. Default 1 — NIC-driven batching off, the
    /// paper's untuned Table-1 baseline.
    pub nic_batch: usize,
    /// Live interval-clock bucket width in milliseconds (`interval_ms
    /// 100`); `0` (the default) keeps the clock off — one predictable
    /// branch per quantum, like `telemetry off`. When set, every router
    /// rolls per-quantum deltas into its own wait-free interval ring; a
    /// multi-threaded run harvests them live into `MtReport::timeseries`.
    pub interval_ms: u64,
    /// Service-level objectives graded against the live interval series
    /// (`slo p99us:5000/loss:0.01/floor:1000000`); the empty default
    /// grades nothing.
    pub slo: rb_telemetry::SloSpec,
    /// Address for the embedded scrape endpoint (`serve_metrics
    /// "127.0.0.1:9898"`; port 0 picks a free port): routers built from
    /// this configuration start a [`rb_telemetry::MetricsServer`] and
    /// attach every run's live rings to it. `None` (the default) serves
    /// nothing.
    pub serve_metrics: Option<std::net::SocketAddr>,
}

impl Default for Knobs {
    fn default() -> Knobs {
        Knobs {
            batch_size: Router::DEFAULT_BATCH_SIZE,
            poll_burst: None,
            ring_depth: 1024,
            workers: 1,
            pool_slots: 0,
            slot_size: rb_packet::pool::DEFAULT_SLOT_SIZE,
            telemetry: rb_telemetry::TelemetryLevel::Off,
            trace_sample: 0,
            regime: Regime::PullCredit,
            nic_batch: 1,
            interval_ms: 0,
            slo: rb_telemetry::SloSpec::default(),
            serve_metrics: None,
        }
    }
}

impl Knobs {
    /// Whole batches per ring interaction.
    pub(crate) fn burst_batches(&self) -> usize {
        (self.poll_burst.unwrap_or(self.batch_size) / self.batch_size).max(1)
    }

    /// What a scrape endpoint needs to observe one run under these
    /// knobs: the run's live rings plus its clock and its objectives
    /// (an empty `slo` leaves `/healthz` always-ok).
    pub fn monitor_source(
        &self,
        interval_rings: Vec<std::sync::Arc<rb_telemetry::IntervalRing>>,
        interval_ticks: u64,
    ) -> rb_telemetry::MonitorSource {
        rb_telemetry::MonitorSource {
            interval_rings,
            interval_ticks,
            ticks_per_sec: rb_telemetry::cycles::ticks_per_sec(),
            slo: (!self.slo.is_empty()).then_some(self.slo),
        }
    }

    /// Applies one `RuntimeConfig(...)` argument string on top of `self`.
    fn apply(&mut self, args: &str) -> Result<(), ConfigError> {
        let bad = |message: String| ConfigError::BadArguments {
            class: "RuntimeConfig".into(),
            message,
        };
        for part in args.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let mut tokens = part
                .split(|c: char| c.is_whitespace() || c == '=')
                .filter(|s| !s.is_empty());
            let (Some(key), Some(value), None) = (tokens.next(), tokens.next(), tokens.next())
            else {
                return Err(bad(format!("`{part}` is not `key value`")));
            };
            // Integer values parse once their key is known, so an unknown
            // key is refused as one whatever its value says.
            let int = || -> Result<usize, ConfigError> {
                value
                    .parse()
                    .map_err(|_| bad(format!("bad value in `{part}`")))
            };
            let positive = || match int()? {
                0 => Err(bad(format!("`{key}` must be positive"))),
                n => Ok(n),
            };
            match key {
                "telemetry" => {
                    self.telemetry =
                        rb_telemetry::TelemetryLevel::parse(value).ok_or_else(|| {
                            bad(format!(
                                "`telemetry` must be off, on or cycles, not `{value}`"
                            ))
                        })?;
                }
                "regime" => {
                    self.regime = Regime::parse(value).ok_or_else(|| {
                        bad(format!("`regime` must be pipeline or pull, not `{value}`"))
                    })?;
                }
                "serve_metrics" => {
                    // The DSL quotes address values (`serve_metrics
                    // "127.0.0.1:9898"`); strip the quotes before parsing.
                    let addr = value.trim_matches('"');
                    self.serve_metrics = Some(addr.parse().map_err(|_| {
                        bad(format!(
                            "bad `serve_metrics` address `{addr}` (want e.g. 127.0.0.1:9898)"
                        ))
                    })?);
                }
                "slo" => {
                    self.slo = rb_telemetry::SloSpec::parse(value).ok_or_else(|| {
                        bad(format!(
                            "bad `slo` spec `{value}` (want e.g. p99us:5000/loss:0.01/floor:1000000)"
                        ))
                    })?;
                }
                // 0 means "tracing off" / "interval clock off" (the
                // defaults); every other integer knob is positive.
                "trace_sample" => self.trace_sample = int()? as u64,
                "interval_ms" => self.interval_ms = int()? as u64,
                "batch_size" => self.batch_size = positive()?,
                "poll_burst" => self.poll_burst = Some(positive()?),
                "ring_depth" => self.ring_depth = positive()?,
                "nic_batch" => self.nic_batch = positive()?,
                "workers" => self.workers = positive()?,
                "pool_slots" => self.pool_slots = positive()?,
                "slot_size" => {
                    let value = positive()?;
                    let min = rb_packet::buf::DEFAULT_HEADROOM + rb_packet::buf::DEFAULT_TAILROOM;
                    if value <= min {
                        return Err(bad(format!("`slot_size` must exceed {min} (room bytes)")));
                    }
                    self.slot_size = value;
                }
                other => return Err(bad(format!("unknown knob `{other}`"))),
            }
        }
        Ok(())
    }
}

/// A parsed element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    /// Configuration-visible name.
    pub name: String,
    /// Element class.
    pub class: String,
    /// Raw argument text (inside the parentheses).
    pub args: String,
}

/// A parsed connection hop: `(from, from_port) -> (to, to_port)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conn {
    /// Source element name.
    pub from: String,
    /// Source output port.
    pub from_port: usize,
    /// Destination element name.
    pub to: String,
    /// Destination input port.
    pub to_port: usize,
}

/// A fully parsed configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedConfig {
    /// All declarations, including synthesized anonymous ones, in order.
    pub decls: Vec<Decl>,
    /// All connections in order.
    pub conns: Vec<Conn>,
}

/// Parses configuration text.
///
/// # Errors
///
/// Returns [`ConfigError::Syntax`] with a line number on malformed input.
pub fn parse(text: &str) -> Result<ParsedConfig, ConfigError> {
    Parser::new(text).parse()
}

/// Parses `text` and instantiates it with the default element registry.
///
/// # Errors
///
/// Propagates syntax errors, unknown classes, bad arguments and graph
/// validation failures.
pub fn build_router(text: &str) -> Result<Router, ConfigError> {
    build_router_with(text, &Registry::standard())
}

/// Parses `text` and instantiates it with a caller-supplied registry.
///
/// # Errors
///
/// See [`build_router`].
pub fn build_router_with(text: &str, registry: &Registry) -> Result<Router, ConfigError> {
    let (graph, knobs) = build_graph_with(text, registry)?;
    Ok(Router::configured(graph, &knobs, 0)?)
}

/// Parses `text` into an (unvalidated) element graph plus the runtime
/// knobs its `RuntimeConfig(...)` statements set, using the default
/// registry. The graph form is what the multi-threaded runtime replicates
/// per core ([`crate::runtime::mt::run_graph`]). No knob is applied to
/// it: arenas and device bursts are [`Router::configured`]'s.
///
/// # Errors
///
/// See [`build_router`].
pub fn build_graph(text: &str) -> Result<(Graph, Knobs), ConfigError> {
    build_graph_with(text, &Registry::standard())
}

/// Caller-supplied-registry variant of [`build_graph`].
///
/// # Errors
///
/// See [`build_router`].
pub fn build_graph_with(text: &str, registry: &Registry) -> Result<(Graph, Knobs), ConfigError> {
    let parsed = parse(text)?;
    let mut graph = Graph::new();
    let mut knobs = Knobs::default();
    for decl in &parsed.decls {
        // `RuntimeConfig` is a pseudo-element: it configures the runtime
        // and never enters the graph.
        if decl.class == "RuntimeConfig" {
            knobs.apply(&decl.args)?;
            continue;
        }
        let element = registry.construct(&decl.class, &decl.args)?;
        graph.add(decl.name.clone(), element)?;
    }
    for conn in &parsed.conns {
        let from = graph
            .id_of(&conn.from)
            .ok_or_else(|| ConfigError::UnknownElement(conn.from.clone()))?;
        let to = graph
            .id_of(&conn.to)
            .ok_or_else(|| ConfigError::UnknownElement(conn.to.clone()))?;
        graph.connect(from, conn.from_port, to, conn.to_port)?;
    }
    Ok((graph, knobs))
}

/// Internal recursive-descent parser.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
    anon_counter: usize,
    out: ParsedConfig,
    declared: std::collections::HashSet<String>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            pos: 0,
            line: 1,
            anon_counter: 0,
            out: ParsedConfig::default(),
            declared: Default::default(),
        }
    }

    fn error(&self, message: impl Into<String>) -> ConfigError {
        ConfigError::Syntax {
            line: self.line,
            message: message.into(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    /// Advances past whitespace and `//` comments.
    fn skip_ws(&mut self) {
        loop {
            let rest = self.rest();
            let trimmed =
                rest.trim_start_matches(|c: char| if c == '\n' { true } else { c.is_whitespace() });
            // Count newlines we skipped for error reporting.
            let skipped = rest.len() - trimmed.len();
            self.line += rest[..skipped].matches('\n').count();
            self.pos += skipped;
            if self.rest().starts_with("//") {
                match self.rest().find('\n') {
                    Some(nl) => self.pos += nl,
                    None => self.pos = self.text.len(),
                }
            } else {
                break;
            }
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Option<&'a str> {
        let rest = self.rest();
        let end = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '@'))
            .unwrap_or(rest.len());
        if end == 0 {
            return None;
        }
        self.pos += end;
        Some(&rest[..end])
    }

    /// Reads balanced-parenthesis argument text (after the opening paren).
    fn args(&mut self) -> Result<&'a str, ConfigError> {
        let rest = self.rest();
        let mut depth = 1usize;
        for (i, c) in rest.char_indices() {
            match c {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += i + 1;
                        return Ok(&rest[..i]);
                    }
                }
                '\n' => self.line += 1,
                _ => {}
            }
        }
        Err(self.error("unbalanced parentheses"))
    }

    fn number(&mut self) -> Result<usize, ConfigError> {
        let rest = self.rest();
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.error("expected a port number"));
        }
        self.pos += end;
        rest[..end]
            .parse()
            .map_err(|_| self.error("port number out of range"))
    }

    fn parse(mut self) -> Result<ParsedConfig, ConfigError> {
        loop {
            self.skip_ws();
            if self.rest().is_empty() {
                break;
            }
            self.statement()?;
            self.skip_ws();
            if !self.eat(";") {
                if self.rest().is_empty() {
                    break;
                }
                return Err(self.error("expected ';'"));
            }
        }
        Ok(self.out)
    }

    /// Parses one declaration or connection chain.
    fn statement(&mut self) -> Result<(), ConfigError> {
        // First endpoint (may be a declaration).
        let first = self.endpoint()?;
        self.skip_ws();
        if self.eat("::") {
            // Declaration: `name :: Class(args)`.
            self.skip_ws();
            let class = self
                .ident()
                .ok_or_else(|| self.error("expected class name after '::'"))?
                .to_string();
            self.skip_ws();
            let args = if self.eat("(") {
                self.args()?.trim().to_string()
            } else {
                String::new()
            };
            if !self.declared.insert(first.clone()) {
                return Err(self.error(format!("`{first}` declared twice")));
            }
            self.out.decls.push(Decl {
                name: first,
                class,
                args,
            });
            return Ok(());
        }
        // Connection chain: endpoint ([p] -> [p] endpoint)+.
        let mut prev = first;
        loop {
            self.skip_ws();
            let from_port = if self.eat("[") {
                let n = self.number()?;
                self.skip_ws();
                if !self.eat("]") {
                    return Err(self.error("expected ']'"));
                }
                self.skip_ws();
                n
            } else {
                0
            };
            if !self.eat("->") {
                if from_port != 0 {
                    return Err(self.error("dangling output port specifier"));
                }
                break;
            }
            self.skip_ws();
            let to_port = if self.eat("[") {
                let n = self.number()?;
                self.skip_ws();
                if !self.eat("]") {
                    return Err(self.error("expected ']'"));
                }
                self.skip_ws();
                n
            } else {
                0
            };
            let next = self.endpoint()?;
            self.out.conns.push(Conn {
                from: prev,
                from_port,
                to: next.clone(),
                to_port,
            });
            prev = next;
        }
        Ok(())
    }

    /// Parses an endpoint: a declared name, or an anonymous `Class(args)`.
    fn endpoint(&mut self) -> Result<String, ConfigError> {
        self.skip_ws();
        let name = self
            .ident()
            .ok_or_else(|| self.error("expected an element name or class"))?
            .to_string();
        self.skip_ws();
        // A '(' right here means an anonymous element instantiation;
        // likewise a class-looking name that was never declared and is
        // followed by -> is treated as anonymous with empty args only if
        // it starts with an uppercase letter (Click convention).
        if self.rest().starts_with('(') {
            self.eat("(");
            let args = self.args()?.trim().to_string();
            let synth = format!("{name}@{}", self.next_anon());
            self.out.decls.push(Decl {
                name: synth.clone(),
                class: name,
                args,
            });
            self.declared.insert(synth.clone());
            return Ok(synth);
        }
        if !self.declared.contains(&name)
            && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && !self.rest().trim_start().starts_with("::")
        {
            let synth = format!("{name}@{}", self.next_anon());
            self.out.decls.push(Decl {
                name: synth.clone(),
                class: name,
                args: String::new(),
            });
            self.declared.insert(synth.clone());
            return Ok(synth);
        }
        Ok(name)
    }

    fn next_anon(&mut self) -> usize {
        self.anon_counter += 1;
        self.anon_counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    #[test]
    fn parses_declarations_and_chain() {
        let cfg = parse(
            "src :: InfiniteSource(64, 100);
             q :: Queue(500); // a comment
             src -> q;",
        )
        .unwrap();
        assert_eq!(cfg.decls.len(), 2);
        assert_eq!(cfg.decls[0].class, "InfiniteSource");
        assert_eq!(cfg.decls[0].args, "64, 100");
        assert_eq!(cfg.conns.len(), 1);
        assert_eq!(cfg.conns[0].from, "src");
        assert_eq!(cfg.conns[0].to, "q");
    }

    #[test]
    fn parses_port_specifiers() {
        let cfg = parse(
            "c :: Classifier(12/0800, -);
             a :: Counter; b :: Discard; d :: Discard;
             a -> c;
             c [0] -> b;
             c [1] -> [0] d;",
        )
        .unwrap();
        assert_eq!(cfg.conns[1].from_port, 0);
        assert_eq!(cfg.conns[2].from_port, 1);
        assert_eq!(cfg.conns[2].to_port, 0);
    }

    #[test]
    fn anonymous_elements_in_chains() {
        let cfg = parse("InfiniteSource(64, 5) -> Counter -> Discard;").unwrap();
        assert_eq!(cfg.decls.len(), 3);
        assert_eq!(cfg.conns.len(), 2);
        assert!(cfg.decls[1].name.starts_with("Counter@"));
    }

    #[test]
    fn long_chain_in_one_statement() {
        let cfg = parse("a :: Counter; b :: Counter; c :: Discard; a -> b -> c;").unwrap();
        assert_eq!(cfg.conns.len(), 2);
        assert_eq!(cfg.conns[0].to, "b");
        assert_eq!(cfg.conns[1].from, "b");
    }

    #[test]
    fn nested_parens_in_args() {
        let cfg = parse("x :: Foo(a(b,c), d);").unwrap();
        assert_eq!(cfg.decls[0].args, "a(b,c), d");
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse("a :: Counter;\nb :: ;").unwrap_err();
        match err {
            ConfigError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_declarations_rejected() {
        assert!(parse("a :: Counter; a :: Discard;").is_err());
    }

    #[test]
    fn unbalanced_parens_rejected() {
        assert!(parse("a :: Foo(bar;").is_err());
    }

    #[test]
    fn missing_semicolon_rejected() {
        assert!(parse("a :: Counter\nb :: Discard;").is_err());
    }

    #[test]
    fn end_to_end_build_and_run() {
        let mut router = build_router(
            "src :: InfiniteSource(64, 250);
             cnt :: Counter;
             src -> cnt -> Discard;",
        )
        .unwrap();
        router.run_until_idle(100_000);
        assert_eq!(router.counter("cnt").unwrap().packets, 250);
    }

    #[test]
    fn runtime_config_sets_knobs() {
        let (graph, knobs) = build_graph(
            "RuntimeConfig(batch_size 64, workers 4, ring_depth 512, poll_burst 16);
             src :: InfiniteSource(64, 10);
             src -> Discard;",
        )
        .unwrap();
        assert_eq!(
            knobs,
            Knobs {
                batch_size: 64,
                poll_burst: Some(16),
                ring_depth: 512,
                workers: 4,
                ..Knobs::default()
            }
        );
        // The pseudo-element must not enter the graph.
        assert_eq!(graph.len(), 2);
    }

    #[test]
    fn runtime_config_nic_batch_reaches_devices() {
        let router = build_router(
            "RuntimeConfig(nic_batch 16);
             dev :: FromDevice(0);
             q :: Queue(64);
             out :: ToDevice;
             dev -> q -> out;",
        )
        .unwrap();
        let rx = router
            .element_as::<crate::elements::FromDevice>("dev")
            .unwrap();
        assert_eq!(rx.nic_batch(), 16);
        let tx = router
            .element_as::<crate::elements::ToDevice>("out")
            .unwrap();
        assert_eq!(tx.nic_batch(), 16);
        // Default leaves kn at 1 (NIC-driven batching off).
        let (_, knobs) = build_graph("InfiniteSource(64, 1) -> Discard;").unwrap();
        assert_eq!(knobs.nic_batch, 1);
    }

    #[test]
    fn runtime_config_accepts_equals_form_and_defaults() {
        let (_, knobs) = build_graph(
            "RuntimeConfig(workers=2);
             src :: InfiniteSource(64, 1);
             src -> Discard;",
        )
        .unwrap();
        assert_eq!(knobs.workers, 2);
        assert_eq!(knobs.batch_size, Knobs::default().batch_size);
        // No RuntimeConfig at all → defaults.
        let (_, knobs) =
            build_graph("c :: Counter; InfiniteSource(64, 1) -> c -> Discard;").unwrap();
        assert_eq!(knobs, Knobs::default());
    }

    #[test]
    fn later_runtime_config_wins_per_key() {
        let (_, knobs) = build_graph(
            "RuntimeConfig(workers 2, batch_size 8);
             RuntimeConfig(workers 4);
             src :: InfiniteSource(64, 1);
             src -> Discard;",
        )
        .unwrap();
        assert_eq!(knobs.workers, 4);
        assert_eq!(knobs.batch_size, 8, "earlier keys survive");
    }

    #[test]
    fn runtime_config_rejects_bad_knobs() {
        for text in [
            "RuntimeConfig(bogus 3);",
            "RuntimeConfig(workers);",
            "RuntimeConfig(workers two);",
            "RuntimeConfig(workers 0);",
            "RuntimeConfig(workers 1 2);",
            "RuntimeConfig(telemetry loud);",
            "RuntimeConfig(telemetry);",
            "RuntimeConfig(regime sideways);",
            "RuntimeConfig(regime);",
            "RuntimeConfig(regime push);",
            "RuntimeConfig(regime spsc);",
        ] {
            match build_graph(text).err() {
                Some(ConfigError::BadArguments { class, .. }) => {
                    assert_eq!(class, "RuntimeConfig");
                }
                other => panic!("expected BadArguments for `{text}`, got {other:?}"),
            }
        }
        // Neither a credit window (worked out as `ring_depth *
        // batch_size`) nor a synthetic RIB (input, through
        // `routes_from_table`) has a key.
        for (text, key) in [
            ("RuntimeConfig(credits 256);", "credits"),
            ("RuntimeConfig(fib_routes 500);", "fib_routes"),
        ] {
            let Err(err) = build_graph(text) else {
                panic!("`{text}` should be rejected");
            };
            let err = err.to_string();
            assert!(
                err.contains("unknown knob") && err.contains(key),
                "`{text}`: {err}"
            );
        }
    }

    #[test]
    fn runtime_config_batch_size_reaches_router() {
        let router = build_router(
            "RuntimeConfig(batch_size 7);
             src :: InfiniteSource(64, 10);
             src -> Discard;",
        )
        .unwrap();
        assert_eq!(router.batch_size(), 7);
    }

    #[test]
    fn runtime_config_telemetry_reaches_router() {
        use rb_telemetry::TelemetryLevel;
        for (word, level) in [
            ("off", TelemetryLevel::Off),
            ("on", TelemetryLevel::Counts),
            ("counts", TelemetryLevel::Counts),
            ("cycles", TelemetryLevel::Cycles),
        ] {
            let text = format!(
                "RuntimeConfig(telemetry {word});
                 src :: InfiniteSource(64, 10);
                 src -> Discard;"
            );
            let (_, knobs) = build_graph(&text).unwrap();
            assert_eq!(knobs.telemetry, level, "word `{word}`");
            let router = build_router(&text).unwrap();
            assert_eq!(router.telemetry_level(), level);
        }
    }

    #[test]
    fn runtime_config_trace_sample_reaches_router_and_allows_zero() {
        let text = "RuntimeConfig(trace_sample 16);
             src :: InfiniteSource(64, 10);
             src -> Discard;";
        let (_, knobs) = build_graph(text).unwrap();
        assert_eq!(knobs.trace_sample, 16);
        assert_eq!(build_router(text).unwrap().trace_sample(), 16);
        // 0 = off is legal, unlike every other integer knob.
        let off = "RuntimeConfig(trace_sample 0);
             src :: InfiniteSource(64, 10);
             src -> Discard;";
        assert_eq!(build_router(off).unwrap().trace_sample(), 0);
    }

    #[test]
    fn runtime_config_fib_knobs_parse_and_validate() {
        // Every IP router reads an RCU FIB: the key that chose between it
        // and a static table is gone, and refused as unknown with any
        // value.
        for value in ["on", "off", "maybe"] {
            let text = format!(
                "RuntimeConfig(fib_rcu {value});
                 src :: InfiniteSource(64, 10);
                 src -> Discard;"
            );
            let Err(err) = build_graph(&text) else {
                panic!("`fib_rcu {value}` should be rejected");
            };
            let err = err.to_string();
            assert!(
                err.contains("unknown knob `fib_rcu`"),
                "`fib_rcu {value}`: {err}"
            );
        }
    }

    #[test]
    fn runtime_config_regime_parses() {
        for (word, regime) in [
            ("pipeline", Regime::Pipeline),
            ("pull", Regime::PullCredit),
            ("pullcredit", Regime::PullCredit),
        ] {
            let text = format!(
                "RuntimeConfig(regime {word});
                 src :: InfiniteSource(64, 10);
                 src -> Discard;"
            );
            let (_, knobs) = build_graph(&text).unwrap();
            assert_eq!(knobs.regime, regime, "word `{word}`");
        }
        // Omitting the key keeps the default.
        let (_, knobs) = build_graph(
            "RuntimeConfig(workers 2);
             src :: InfiniteSource(64, 10);
             src -> Discard;",
        )
        .unwrap();
        assert_eq!(knobs.regime, Regime::PullCredit);
    }

    #[test]
    fn runtime_config_interval_and_slo_parse() {
        let text = "RuntimeConfig(interval_ms 100, slo p99us:5000/loss:0.01/floor:1000000);
             src :: InfiniteSource(64, 10);
             src -> Discard;";
        let (_, knobs) = build_graph(text).unwrap();
        assert_eq!(knobs.interval_ms, 100);
        assert_eq!(knobs.slo.p99_latency_us, Some(5000.0));
        assert_eq!(knobs.slo.max_loss, Some(0.01));
        assert_eq!(knobs.slo.min_pps, Some(1_000_000.0));
        // `interval_ms 0` = clock off is legal, like `trace_sample 0`;
        // an omitted `slo` grades nothing.
        let (_, knobs) = build_graph(
            "RuntimeConfig(interval_ms 0);
             src :: InfiniteSource(64, 10);
             src -> Discard;",
        )
        .unwrap();
        assert_eq!(knobs.interval_ms, 0);
        assert!(knobs.slo.is_empty());
        // The equals form works and bad specs are rejected with the class.
        let (_, knobs) = build_graph(
            "RuntimeConfig(interval_ms=50, slo=loss:0.02);
             src :: InfiniteSource(64, 10);
             src -> Discard;",
        )
        .unwrap();
        assert_eq!(knobs.interval_ms, 50);
        assert_eq!(knobs.slo.max_loss, Some(0.02));
        // So are targets that parse as floats but are not numbers JSON
        // has (`/healthz` prints them back) or that no run can meet.
        for spec in [
            "nonsense",
            "p99us:inf",
            "floor:nan",
            "loss:-0.01",
            "floor:1e999",
        ] {
            match build_graph(&format!("RuntimeConfig(slo {spec});")).err() {
                Some(ConfigError::BadArguments { class, .. }) => assert_eq!(class, "RuntimeConfig"),
                other => panic!("`slo {spec}`: expected BadArguments, got {other:?}"),
            }
        }
    }

    #[test]
    fn runtime_config_interval_reaches_router() {
        // The key used to parse and then be dropped on the way to the
        // single-threaded `Router`.
        let mut router = build_router(
            "RuntimeConfig(interval_ms 5);
             src :: InfiniteSource(64, 300);
             src -> Discard;",
        )
        .unwrap();
        assert!(router.interval_ticks() > 0, "interval clock is on");
        router.run_until_idle(100_000);
        let series = router.timeseries().expect("clock on, series harvested");
        assert!(!series.is_empty());
        assert_eq!(series.ledger().sourced, 300);
    }

    #[test]
    fn telemetry_cycles_counts_configured_graph() {
        let mut router = build_router(
            "RuntimeConfig(telemetry cycles, batch_size 16);
             src :: InfiniteSource(64, 120);
             cnt :: Counter;
             src -> cnt -> Discard;",
        )
        .unwrap();
        router.run_until_idle(100_000);
        let snap = router.telemetry_snapshot();
        let cnt = snap
            .stages
            .iter()
            .find(|s| s.name == "cnt")
            .expect("counter stage present");
        assert_eq!(cnt.packets, 120);
        assert!(cnt.cycles > 0);
    }

    #[test]
    fn bare_from_device_polls_the_device_burst() {
        // `FromDevice(port)` polls what the router's devices poll —
        // `poll_burst`, else `kp` — and `FromDevice(port, N)` pins N.
        let polled = |runtime: &str, device: &str| {
            let mut router = build_router(&format!(
                "RuntimeConfig({runtime});
                 rx :: {device}; q :: Queue(1000); tx :: ToDevice;
                 rx -> q -> tx;"
            ))
            .unwrap();
            let rx = router
                .element_as_mut::<crate::elements::FromDevice>("rx")
                .unwrap();
            for i in 0..100u8 {
                rx.inject(rb_packet::Packet::from_slice(&[i; 60]));
            }
            let mut out = crate::Output::new();
            crate::Element::run_task(rx, &mut out);
            out.len()
        };
        assert_eq!(polled("batch_size 8", "FromDevice(0)"), 8);
        assert_eq!(polled("batch_size 8, poll_burst 64", "FromDevice(0)"), 64);
        assert_eq!(polled("batch_size 8", "FromDevice(0, 4)"), 4);
        assert_eq!(polled("batch_size 32", "FromDevice(0)"), 32);
    }

    #[test]
    fn bare_to_device_inherits_graph_batch_size() {
        // `kp` is the single batching knob. A bare `ToDevice` pulls
        // whatever the graph batch size says; an explicit burst wins.
        let router = build_router(
            "RuntimeConfig(batch_size 48);
             src :: InfiniteSource(64, 10);
             inherit :: ToDevice();
             pinned :: ToDevice(16);
             tee :: Tee(2);
             q0 :: Queue; q1 :: Queue;
             src -> tee;
             tee [0] -> q0 -> inherit;
             tee [1] -> q1 -> pinned;",
        )
        .unwrap();
        let kp = router.batch_size();
        assert_eq!(kp, 48);
        let inherit = router
            .element_as::<crate::elements::ToDevice>("inherit")
            .unwrap();
        assert_eq!(inherit.burst(), 48);
        let pinned = router
            .element_as::<crate::elements::ToDevice>("pinned")
            .unwrap();
        assert_eq!(pinned.burst(), 16);
        // Grammar variants.
        let r = Registry::standard();
        assert!(r.construct("ToDevice", "keep").is_ok());
        assert!(r.construct("ToDevice", "8, keep").is_ok());
        assert!(r.construct("ToDevice", "8, bogus").is_err());
        assert!(r.construct("ToDevice", "0").is_err());
    }

    #[test]
    fn pool_knobs_attach_arenas_to_sources() {
        let text = "RuntimeConfig(pool_slots 128, slot_size 512);
             src :: InfiniteSource(64, 10);
             in0 :: FromDevice(0);
             src -> Discard;
             in0 -> Discard;";
        let (graph, knobs) = build_graph(text).unwrap();
        assert_eq!(knobs.pool_slots, 128);
        assert_eq!(knobs.slot_size, 512);
        // The graph holds no arena: a configured router attaches them.
        assert!((0..graph.len()).all(|id| graph.element(id).pool().is_none()));
        let router = build_router(text).unwrap();
        let pool = router
            .element_as::<crate::elements::InfiniteSource>("src")
            .unwrap()
            .pool()
            .expect("source should carry an arena");
        assert_eq!(pool.slots(), 128);
        assert_eq!(pool.slot_size(), 512);
        assert!(router
            .element_as::<crate::elements::FromDevice>("in0")
            .unwrap()
            .pool()
            .is_some());
        // No knob → no pools.
        let router = build_router("src :: InfiniteSource(64, 1); src -> Discard;").unwrap();
        assert!(router
            .element_as::<crate::elements::InfiniteSource>("src")
            .unwrap()
            .pool()
            .is_none());
        // Slot too small for the mandatory room is rejected at parse time.
        assert!(build_graph("RuntimeConfig(slot_size 64);").is_err());
    }

    #[test]
    fn pooled_router_runs_and_reports_pool_stats() {
        let mut router = build_router(
            "RuntimeConfig(pool_slots 64, batch_size 16);
             src :: InfiniteSource(64, 200);
             cnt :: Counter;
             src -> cnt -> Discard;",
        )
        .unwrap();
        router.run_until_idle(100_000);
        let stats = router.stats();
        assert_eq!(router.counter("cnt").unwrap().packets, 200);
        assert_eq!(stats.pool_allocs, 200);
        assert_eq!(stats.pool_recycles, 200, "Discard recycles every handle");
        assert_eq!(stats.pool_exhausted, 0);
    }

    #[test]
    fn build_rejects_unknown_elements_in_connections() {
        // `ghost` is lowercase, so it is not auto-instantiated.
        match build_router("a :: Counter; a -> ghost;") {
            Err(ConfigError::UnknownElement(n)) => assert_eq!(n, "ghost"),
            other => panic!("expected UnknownElement, got {:?}", other.err()),
        }
    }
}
