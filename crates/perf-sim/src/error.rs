use crate::session::CounterId;
use std::fmt;

/// Error type for fallible `perf-sim` operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The event name could not be resolved on this architecture.
    UnknownEvent(String),
    /// The event exists but is not supported by this architecture's PMU.
    UnsupportedEvent {
        /// The event name as resolved.
        event: String,
        /// The architecture it was requested on.
        arch: String,
    },
    /// The counter id is not (or no longer) open.
    BadCounter(CounterId),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownEvent(name) => write!(f, "unknown event name: {name}"),
            Error::UnsupportedEvent { event, arch } => {
                write!(f, "event {event} is not supported on {arch}")
            }
            Error::BadCounter(id) => write!(f, "counter {id:?} is not open"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            Error::UnknownEvent("bogus".to_string()),
            Error::UnsupportedEvent {
                event: "stalled-cycles-backend".to_string(),
                arch: "Core2".to_string(),
            },
            Error::BadCounter(CounterId(3)),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<Error>();
    }
}
