//! A Click-like modular packet-processing framework in Rust.
//!
//! RouteBricks keeps Click's programming model — "our only intervention
//! was to enforce a specific element-to-core allocation" (§8) — and this
//! crate reproduces that model:
//!
//! * [`element::Element`] — the unit of packet processing, with push and
//!   pull ports exactly as in Click.
//! * [`graph::Graph`] — a directed element graph with port-kind checking.
//! * [`config`] — a parser for the Click configuration language subset
//!   RouteBricks uses (`name :: Class(args); a [1] -> [0] b -> c;`).
//! * [`registry`] — maps class names to element constructors, so parsed
//!   configs instantiate real elements.
//! * [`runtime`] — a single-threaded driver with Click's stride task
//!   scheduler, plus a multi-threaded runtime that pins forwarding paths
//!   to worker threads the way §4.2's parallel/pipeline experiments do.
//! * [`elements`] — the standard element library: device sources/sinks,
//!   queues, classifiers, IP routing (`CheckIPHeader`, `DecIPTTL`,
//!   `LookupIPRoute` over DIR-24-8), IPsec ESP encryption, and the glue
//!   elements (`Tee`, `Paint`, `HashSwitch`, …).
//!
//! # Examples
//!
//! Build and run a tiny forwarding config from text:
//!
//! ```
//! use rb_click::config::build_router;
//!
//! let mut router = build_router(
//!     "src :: InfiniteSource(64, 100);
//!      cnt :: Counter;
//!      sink :: Discard;
//!      src -> cnt -> sink;",
//! )
//! .unwrap();
//! router.run_until_idle(1_000_000);
//! assert_eq!(router.counter("cnt").unwrap().packets, 100);
//! ```

#![deny(clippy::cast_possible_truncation)]

pub mod config;
pub mod element;
pub mod elements;
pub mod graph;
pub mod registry;
pub mod runtime;

pub use config::{build_graph, build_router, Knobs};
pub use element::{Element, Output, PortKind};
pub use graph::{Graph, GraphError};
pub use runtime::driver::Router;
pub use runtime::mt::{run_graph, GraphRunOutcome};
pub use runtime::regime::Regime;

/// Errors raised while parsing or instantiating configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Lexical or syntactic error in the config text.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An element class name is not in the registry.
    UnknownClass(String),
    /// An element's arguments failed to parse.
    BadArguments {
        /// Element class.
        class: String,
        /// Description of the problem.
        message: String,
    },
    /// A connection references an undeclared element.
    UnknownElement(String),
    /// The finished graph failed validation.
    Graph(GraphError),
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ConfigError::UnknownClass(c) => write!(f, "unknown element class `{c}`"),
            ConfigError::BadArguments { class, message } => {
                write!(f, "bad arguments for `{class}`: {message}")
            }
            ConfigError::UnknownElement(n) => write!(f, "unknown element `{n}`"),
            ConfigError::Graph(g) => write!(f, "graph error: {g}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<GraphError> for ConfigError {
    fn from(e: GraphError) -> Self {
        ConfigError::Graph(e)
    }
}
