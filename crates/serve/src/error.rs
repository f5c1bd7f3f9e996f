//! Typed serving failures.

use std::fmt;

use temco_runtime::ExecError;

/// Why a request was not served. Submission errors (`QueueFull`,
/// `ShuttingDown`, `InputShape`) surface synchronously from
/// [`crate::Server::submit`]; `DeadlineExceeded` arrives through the
/// [`crate::Ticket`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded request queue is at capacity — backpressure. Retry
    /// later or shed the request upstream.
    QueueFull,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The request's deadline expired before a worker picked it up; it was
    /// never executed.
    DeadlineExceeded,
    /// The submitted sample does not match the model's input (carries the
    /// graph input's name, its per-sample shape, and what was passed).
    InputShape {
        /// Graph input name.
        name: String,
        /// Expected per-sample shape (leading dimension 1).
        expected: Vec<usize>,
        /// Shape of the submitted tensor.
        got: Vec<usize>,
    },
    /// The model cannot be served (multi-input/multi-output graphs).
    Unsupported(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded => {
                write!(f, "deadline expired before the request was executed")
            }
            ServeError::InputShape { name, expected, got } => {
                write!(f, "sample for input '{name}' has shape {got:?}, expected {expected:?}")
            }
            ServeError::Unsupported(why) => write!(f, "model not servable: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A server could not be constructed.
#[derive(Debug)]
pub enum BuildError {
    /// The graph is structurally unservable (inputs/outputs arity).
    Unsupported(String),
    /// Re-batching the graph to `max_batch` failed (degenerate shapes,
    /// scalar inputs, …).
    Rebatch(temco_ir::ShapeError),
    /// Compiling the `max_batch` plan failed.
    Compile(ExecError),
    /// Spawning a serving worker thread failed (resource exhaustion). The
    /// server tears down any workers already started and reports this as
    /// a recoverable error instead of panicking mid-construction.
    Spawn {
        /// Index of the worker whose thread could not be spawned.
        worker: usize,
        /// The underlying OS error.
        source: std::io::Error,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Unsupported(why) => write!(f, "model not servable: {why}"),
            BuildError::Rebatch(source) => write!(f, "re-batching to max_batch failed: {source}"),
            BuildError::Compile(source) => {
                write!(f, "compiling the max_batch plan failed: {source}")
            }
            BuildError::Spawn { worker, source } => {
                write!(f, "spawning serving worker {worker} failed: {source}")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Unsupported(_) => None,
            BuildError::Rebatch(source) => Some(source),
            BuildError::Compile(source) => Some(source),
            BuildError::Spawn { source, .. } => Some(source),
        }
    }
}
