//! The unified error taxonomy of the service surface.
//!
//! Before the service layer existed, every crate reported failure in its
//! own shape: `parspeed-core` returned [`Infeasible`] structs, the planner
//! and JSONL reader returned bare `String`s, and the CLI wrapped whatever
//! it caught in its own error type. [`ParspeedError`] replaces all of
//! those at the service boundary: every error a [`Query`](crate::Query)
//! can produce is one of seven kinds, each kind has a stable wire name
//! ([`ParspeedError::kind`]), and the human-readable message is preserved
//! verbatim so rerouting a caller through the service never changes what
//! they see.
//!
//! Errors are values here, not aborts: a malformed query answers in its
//! own response slot and the rest of the batch proceeds. Model-level
//! errors (e.g. a memory-infeasible instance) are deterministic properties
//! of the query and are cached exactly like successful outcomes.

use parspeed_core::Infeasible;
use std::fmt;

/// Every way a service request can fail, as one taxonomy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ParspeedError {
    /// The request could not be read at all (malformed JSONL, bad JSON
    /// value, unknown op).
    Parse(String),
    /// The request parsed but asks something meaningless (zero grid side,
    /// efficiency outside `(0, 1)`, empty sweep axis).
    InvalidRequest(String),
    /// The model says no: the instance is well-formed but has no feasible
    /// answer (e.g. the problem does not fit the per-processor memory).
    Infeasible(String),
    /// The request is understood but this engine cannot serve it (wire
    /// version from the future, no experiment runner registered).
    Unsupported(String),
    /// A concurrent frontend refused admission: its bounded submission
    /// queue was full (or it was draining for shutdown) when the request
    /// arrived. The request was *not* evaluated; retrying later is safe.
    /// Never produced by [`Engine`](crate::Engine) itself — this is the
    /// serving layer's documented overload answer, delivered in the
    /// request's own reply slot rather than by disconnecting the client.
    Overloaded(String),
    /// The request's deadline (`deadline_ms` on the wire, or a serving
    /// tier default) expired before the result could be produced. The
    /// request may or may not have been evaluated — only retry-safe
    /// (idempotent) queries should be resubmitted. Answered in the
    /// request's own reply slot, like every other refusal; never
    /// produced by [`Engine`](crate::Engine) itself.
    DeadlineExceeded(String),
    /// An invariant broke inside the engine. Should never happen; kept in
    /// the taxonomy so nothing maps to a panic.
    Internal(String),
}

impl ParspeedError {
    /// Parse-stage error.
    pub fn parse(msg: impl Into<String>) -> Self {
        ParspeedError::Parse(msg.into())
    }

    /// Validation-stage error.
    pub fn invalid(msg: impl Into<String>) -> Self {
        ParspeedError::InvalidRequest(msg.into())
    }

    /// Model-level infeasibility.
    pub fn infeasible(msg: impl Into<String>) -> Self {
        ParspeedError::Infeasible(msg.into())
    }

    /// Capability mismatch.
    pub fn unsupported(msg: impl Into<String>) -> Self {
        ParspeedError::Unsupported(msg.into())
    }

    /// Admission-control rejection by a concurrent frontend.
    pub fn overloaded(msg: impl Into<String>) -> Self {
        ParspeedError::Overloaded(msg.into())
    }

    /// Deadline expiry at the serving tier.
    pub fn deadline_exceeded(msg: impl Into<String>) -> Self {
        ParspeedError::DeadlineExceeded(msg.into())
    }

    /// The stable wire name of this error's kind (the JSONL `error_kind`
    /// field of wire v2).
    pub fn kind(&self) -> &'static str {
        match self {
            ParspeedError::Parse(_) => "parse",
            ParspeedError::InvalidRequest(_) => "invalid_request",
            ParspeedError::Infeasible(_) => "infeasible",
            ParspeedError::Unsupported(_) => "unsupported",
            ParspeedError::Overloaded(_) => "overloaded",
            ParspeedError::DeadlineExceeded(_) => "deadline_exceeded",
            ParspeedError::Internal(_) => "internal",
        }
    }

    /// The human-readable message, without the kind.
    pub fn message(&self) -> &str {
        match self {
            ParspeedError::Parse(m)
            | ParspeedError::InvalidRequest(m)
            | ParspeedError::Infeasible(m)
            | ParspeedError::Unsupported(m)
            | ParspeedError::Overloaded(m)
            | ParspeedError::DeadlineExceeded(m)
            | ParspeedError::Internal(m) => m,
        }
    }
}

impl fmt::Display for ParspeedError {
    /// Displays the message alone: callers that printed a pre-taxonomy
    /// `String` error print the identical text after migrating.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.message())
    }
}

impl std::error::Error for ParspeedError {}

impl From<Infeasible> for ParspeedError {
    fn from(e: Infeasible) -> Self {
        ParspeedError::Infeasible(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_the_bare_message() {
        let e = ParspeedError::invalid("grid side must be positive");
        assert_eq!(e.to_string(), "grid side must be positive");
        assert_eq!(e.kind(), "invalid_request");
    }

    #[test]
    fn infeasible_converts_verbatim() {
        let core = Infeasible { needed: 2048.0, capacity: 100.0 };
        let e: ParspeedError = core.into();
        assert_eq!(e.to_string(), core.to_string());
        assert_eq!(e.kind(), "infeasible");
    }

    #[test]
    fn kinds_have_stable_wire_names() {
        let kinds: Vec<&str> = [
            ParspeedError::parse("x"),
            ParspeedError::invalid("x"),
            ParspeedError::infeasible("x"),
            ParspeedError::unsupported("x"),
            ParspeedError::overloaded("x"),
            ParspeedError::deadline_exceeded("x"),
            ParspeedError::Internal("x".into()),
        ]
        .iter()
        .map(ParspeedError::kind)
        .collect();
        assert_eq!(
            kinds,
            vec![
                "parse",
                "invalid_request",
                "infeasible",
                "unsupported",
                "overloaded",
                "deadline_exceeded",
                "internal"
            ]
        );
    }
}
