//! The element graph: named elements plus port-to-port edges.

use crate::element::Element;
use std::collections::HashMap;

/// Identifier of an element within a graph.
pub type ElementId = usize;

/// One directed edge: `(from element, output port) → (to element, input
/// port)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source element.
    pub from: ElementId,
    /// Source output port.
    pub from_port: usize,
    /// Destination element.
    pub to: ElementId,
    /// Destination input port.
    pub to_port: usize,
}

/// Errors detected while assembling or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Two elements were declared with the same name.
    DuplicateName(String),
    /// An edge references a port the element does not have.
    NoSuchPort {
        /// Element name.
        element: String,
        /// `true` for an output port, `false` for an input port.
        output: bool,
        /// The offending port number.
        port: usize,
    },
    /// A push output was wired to a pull input or vice versa.
    KindMismatch {
        /// Source element name.
        from: String,
        /// Destination element name.
        to: String,
    },
    /// Two edges leave the same push output (push outputs are unicast;
    /// use `Tee` to duplicate).
    DoublyUsedOutput {
        /// Element name.
        element: String,
        /// Output port.
        port: usize,
    },
    /// A port was left unconnected.
    Unconnected {
        /// Element name.
        element: String,
        /// `true` for an output port.
        output: bool,
        /// Port number.
        port: usize,
    },
    /// An element does not implement [`Element::replicate`], so the graph
    /// cannot be copied per core.
    NotReplicable {
        /// Element name.
        element: String,
        /// Element class.
        class: String,
    },
    /// The graph has no element of a class the runtime requires (e.g. no
    /// `FromDevice` ingress for the sharded MT runners).
    MissingIngress,
}

impl core::fmt::Display for GraphError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GraphError::DuplicateName(n) => write!(f, "duplicate element name `{n}`"),
            GraphError::NoSuchPort {
                element,
                output,
                port,
            } => {
                let dir = if *output { "output" } else { "input" };
                write!(f, "`{element}` has no {dir} port {port}")
            }
            GraphError::KindMismatch { from, to } => {
                write!(f, "push/pull mismatch on edge {from} -> {to}")
            }
            GraphError::DoublyUsedOutput { element, port } => {
                write!(f, "output {port} of `{element}` connected twice")
            }
            GraphError::Unconnected {
                element,
                output,
                port,
            } => {
                let dir = if *output { "output" } else { "input" };
                write!(f, "{dir} port {port} of `{element}` is unconnected")
            }
            GraphError::NotReplicable { element, class } => {
                write!(
                    f,
                    "element `{element}` ({class}) does not support per-core replication"
                )
            }
            GraphError::MissingIngress => {
                write!(f, "graph has no FromDevice ingress for sharded execution")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A built element graph, ready for a driver to execute.
pub struct Graph {
    elements: Vec<Box<dyn Element>>,
    names: Vec<String>,
    by_name: HashMap<String, ElementId>,
    edges: Vec<Edge>,
    /// `out_edge[element][port]` — the edge leaving that output, if any.
    out_edge: Vec<Vec<Option<Edge>>>,
    /// `in_edges[element][port]` — edges arriving at that input.
    in_edges: Vec<Vec<Vec<Edge>>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Graph {
        Graph {
            elements: Vec::new(),
            names: Vec::new(),
            by_name: HashMap::new(),
            edges: Vec::new(),
            out_edge: Vec::new(),
            in_edges: Vec::new(),
        }
    }

    /// Adds a named element; returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateName`] if the name is taken.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        element: Box<dyn Element>,
    ) -> Result<ElementId, GraphError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(GraphError::DuplicateName(name));
        }
        let id = self.elements.len();
        let ports = element.ports();
        self.out_edge.push(vec![None; ports.outputs.len()]);
        self.in_edges.push(vec![Vec::new(); ports.inputs.len()]);
        self.by_name.insert(name.clone(), id);
        self.names.push(name);
        self.elements.push(element);
        Ok(id)
    }

    /// Connects `(from, from_port)` to `(to, to_port)`.
    ///
    /// # Errors
    ///
    /// Port-existence, kind-compatibility and unicast-output violations
    /// are reported immediately.
    pub fn connect(
        &mut self,
        from: ElementId,
        from_port: usize,
        to: ElementId,
        to_port: usize,
    ) -> Result<(), GraphError> {
        let from_ports = self.elements[from].ports();
        let to_ports = self.elements[to].ports();
        let out_kind = *from_ports
            .outputs
            .get(from_port)
            .ok_or(GraphError::NoSuchPort {
                element: self.names[from].clone(),
                output: true,
                port: from_port,
            })?;
        let in_kind = *to_ports.inputs.get(to_port).ok_or(GraphError::NoSuchPort {
            element: self.names[to].clone(),
            output: false,
            port: to_port,
        })?;
        if !out_kind.compatible_with(in_kind) {
            return Err(GraphError::KindMismatch {
                from: self.names[from].clone(),
                to: self.names[to].clone(),
            });
        }
        if self.out_edge[from][from_port].is_some() {
            return Err(GraphError::DoublyUsedOutput {
                element: self.names[from].clone(),
                port: from_port,
            });
        }
        let edge = Edge {
            from,
            from_port,
            to,
            to_port,
        };
        self.out_edge[from][from_port] = Some(edge);
        self.in_edges[to][to_port].push(edge);
        self.edges.push(edge);
        Ok(())
    }

    /// Checks that every port of every element is connected.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError::Unconnected`] found.
    pub fn check_fully_connected(&self) -> Result<(), GraphError> {
        for (id, elem) in self.elements.iter().enumerate() {
            let ports = elem.ports();
            for port in 0..ports.outputs.len() {
                if self.out_edge[id][port].is_none() {
                    return Err(GraphError::Unconnected {
                        element: self.names[id].clone(),
                        output: true,
                        port,
                    });
                }
            }
            for port in 0..ports.inputs.len() {
                if self.in_edges[id][port].is_empty() {
                    return Err(GraphError::Unconnected {
                        element: self.names[id].clone(),
                        output: false,
                        port,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` when the graph has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Looks up an element id by name.
    pub fn id_of(&self, name: &str) -> Option<ElementId> {
        self.by_name.get(name).copied()
    }

    /// Returns an element's name.
    pub fn name_of(&self, id: ElementId) -> &str {
        &self.names[id]
    }

    /// Returns the edge leaving `(element, output port)`, if connected.
    pub fn edge_from(&self, id: ElementId, port: usize) -> Option<Edge> {
        self.out_edge.get(id)?.get(port).copied().flatten()
    }

    /// Returns the edges arriving at `(element, input port)`.
    pub fn edges_into(&self, id: ElementId, port: usize) -> &[Edge] {
        &self.in_edges[id][port]
    }

    /// Mutable access to an element by id.
    pub fn element_mut(&mut self, id: ElementId) -> &mut dyn Element {
        self.elements[id].as_mut()
    }

    /// Shared access to an element by id.
    pub fn element(&self, id: ElementId) -> &dyn Element {
        self.elements[id].as_ref()
    }

    /// All edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Builds a per-core copy of the graph: same names and wiring, each
    /// element replaced by its [`Element::replicate`] replica (fresh
    /// mutable state, `Arc`-shared read-only structures, empty ingress
    /// buffers).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NotReplicable`] naming the first element
    /// whose class does not implement replication.
    pub fn replicate(&self) -> Result<Graph, GraphError> {
        let mut copy = Graph::new();
        for (id, element) in self.elements.iter().enumerate() {
            let replica = element
                .replicate()
                .ok_or_else(|| GraphError::NotReplicable {
                    element: self.names[id].clone(),
                    class: element.class_name().to_string(),
                })?;
            copy.add(self.names[id].clone(), replica)?;
        }
        for edge in &self.edges {
            copy.connect(edge.from, edge.from_port, edge.to, edge.to_port)?;
        }
        Ok(copy)
    }

    /// Ids of elements whose concrete type is `T`, in insertion order —
    /// e.g. every `FromDevice` (ingress) or `ToDevice` (egress). Element
    /// ids are assigned by insertion, so the positions returned here are
    /// identical across replicas of the same graph.
    pub fn elements_of_type<T: Element>(&self) -> Vec<ElementId> {
        (0..self.elements.len())
            .filter(|&id| self.elements[id].downcast_ref::<T>().is_some())
            .collect()
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::sink::{Counter, Discard};
    use crate::elements::source::InfiniteSource;

    #[test]
    fn add_and_connect_valid_chain() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, Some(10))))
            .unwrap();
        let c = g.add("cnt", Box::new(Counter::new())).unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        g.connect(s, 0, c, 0).unwrap();
        g.connect(c, 0, d, 0).unwrap();
        g.check_fully_connected().unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.id_of("cnt"), Some(c));
        assert_eq!(g.name_of(d), "sink");
        assert_eq!(g.edge_from(s, 0).unwrap().to, c);
        assert_eq!(g.edges_into(d, 0).len(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut g = Graph::new();
        g.add("x", Box::new(Discard::new())).unwrap();
        assert!(matches!(
            g.add("x", Box::new(Discard::new())),
            Err(GraphError::DuplicateName(_))
        ));
    }

    #[test]
    fn bad_port_rejected() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, None)))
            .unwrap();
        let d = g.add("sink", Box::new(Discard::new())).unwrap();
        assert!(matches!(
            g.connect(s, 5, d, 0),
            Err(GraphError::NoSuchPort {
                output: true,
                port: 5,
                ..
            })
        ));
        assert!(matches!(
            g.connect(s, 0, d, 9),
            Err(GraphError::NoSuchPort {
                output: false,
                port: 9,
                ..
            })
        ));
    }

    #[test]
    fn double_output_rejected() {
        let mut g = Graph::new();
        let s = g
            .add("src", Box::new(InfiniteSource::new(64, None)))
            .unwrap();
        let a = g.add("a", Box::new(Discard::new())).unwrap();
        let b = g.add("b", Box::new(Discard::new())).unwrap();
        g.connect(s, 0, a, 0).unwrap();
        assert!(matches!(
            g.connect(s, 0, b, 0),
            Err(GraphError::DoublyUsedOutput { .. })
        ));
    }

    #[test]
    fn unconnected_port_detected() {
        let mut g = Graph::new();
        g.add("src", Box::new(InfiniteSource::new(64, None)))
            .unwrap();
        assert!(matches!(
            g.check_fully_connected(),
            Err(GraphError::Unconnected { output: true, .. })
        ));
    }
}
