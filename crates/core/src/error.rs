//! Error types for `DUAL` instances and solvers.

use core::fmt;
use qld_hypergraph::HypergraphError;

/// Which of the two hypergraphs of a `DUAL` instance an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The first hypergraph (`G`).
    G,
    /// The second hypergraph (`H`).
    H,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::G => write!(f, "G"),
            Side::H => write!(f, "H"),
        }
    }
}

/// Errors raised when constructing or solving a `DUAL` instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DualError {
    /// One of the hypergraphs is not simple (the paper requires irredundant inputs).
    NotSimple {
        /// Which hypergraph violates simplicity.
        side: Side,
        /// The underlying validation error.
        source: HypergraphError,
    },
    /// The two hypergraphs are declared over different vertex universes.
    UniverseMismatch {
        /// Universe size of `G`.
        g_vertices: usize,
        /// Universe size of `H`.
        h_vertices: usize,
    },
    /// A resource limit of the explicit tree builder was exceeded.
    TreeTooLarge {
        /// The configured node limit.
        limit: usize,
    },
    /// The literal `decompose` enumeration was asked to range over too many path
    /// descriptors (use the pruned traversal instead).
    DescriptorSpaceTooLarge {
        /// The number of path descriptors that would have to be enumerated.
        descriptors: u128,
        /// The configured limit.
        limit: u128,
    },
}

impl fmt::Display for DualError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DualError::NotSimple { side, source } => {
                write!(f, "hypergraph {side} is not simple: {source}")
            }
            DualError::UniverseMismatch {
                g_vertices,
                h_vertices,
            } => write!(
                f,
                "hypergraphs are over different universes ({g_vertices} vs {h_vertices} vertices)"
            ),
            DualError::TreeTooLarge { limit } => {
                write!(f, "decomposition tree exceeded the node limit of {limit}")
            }
            DualError::DescriptorSpaceTooLarge { descriptors, limit } => write!(
                f,
                "decompose would enumerate {descriptors} path descriptors, above the limit of {limit}"
            ),
        }
    }
}

impl core::error::Error for DualError {
    fn source(&self) -> Option<&(dyn core::error::Error + 'static)> {
        match self {
            DualError::NotSimple { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DualError::NotSimple {
            side: Side::H,
            source: HypergraphError::NotSimple {
                contained: 0,
                container: 1,
            },
        };
        assert!(e.to_string().contains("H is not simple"));
        assert!(core::error::Error::source(&e).is_some());

        let u = DualError::UniverseMismatch {
            g_vertices: 3,
            h_vertices: 4,
        };
        assert!(u.to_string().contains("3 vs 4"));
        assert!(core::error::Error::source(&u).is_none());

        let t = DualError::TreeTooLarge { limit: 10 };
        assert!(t.to_string().contains("10"));

        let d = DualError::DescriptorSpaceTooLarge {
            descriptors: 1000,
            limit: 10,
        };
        assert!(d.to_string().contains("1000"));
    }

    #[test]
    fn side_display() {
        assert_eq!(Side::G.to_string(), "G");
        assert_eq!(Side::H.to_string(), "H");
    }
}
