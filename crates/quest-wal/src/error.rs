//! Error type for the durability layer.

use std::fmt;

use relstore::StoreError;

/// Errors raised while writing, reading, or replaying logs and snapshots.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A log or snapshot line failed to parse or checksum (1-based line).
    Corrupt {
        /// Line number within the file, 1-based.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file was written against a different schema than the target
    /// database (fingerprints disagree).
    SchemaMismatch {
        /// Fingerprint the caller's catalog hashes to.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
    /// Applying a change record violated a storage-level constraint.
    Store(StoreError),
    /// A [`DurableLog`](crate::DurableLog) directory whose log and snapshot
    /// forbid the request: creating over existing history, or resuming a
    /// log that ends below its snapshot's watermark.
    State(String),
}

impl WalError {
    /// Whether a retry can be expected to succeed.
    ///
    /// Transient errors are interrupted/timed-out style I/O failures (the
    /// kinds `quest-fault` injects for retryable faults); corruption, schema
    /// mismatches, and store rejections are deterministic and permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            WalError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { line, message } => {
                write!(f, "corrupt record at line {line}: {message}")
            }
            WalError::SchemaMismatch { expected, found } => write!(
                f,
                "schema fingerprint mismatch: catalog is {expected:016x}, file says {found:016x}"
            ),
            WalError::Store(e) => write!(f, "replay rejected by store: {e}"),
            WalError::State(msg) => write!(f, "invalid log state: {msg}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<StoreError> for WalError {
    fn from(e: StoreError) -> Self {
        WalError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = WalError::SchemaMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("fingerprint"));
        let e = WalError::Corrupt {
            line: 7,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn transience_follows_io_kind() {
        let transient = WalError::Io(std::io::Error::new(
            std::io::ErrorKind::Interrupted,
            "injected",
        ));
        assert!(transient.is_transient());
        let permanent = WalError::Io(std::io::Error::other("disk on fire"));
        assert!(!permanent.is_transient());
        assert!(!WalError::Corrupt {
            line: 1,
            message: "bad".into()
        }
        .is_transient());
    }
}
