//! Typed WAL failure modes, one per corruption class.

/// Everything that can go wrong encoding, decoding, or replaying a log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// An underlying I/O operation failed.
    Io {
        /// The Vfs operation that failed (e.g. "append", "rename").
        op: &'static str,
        /// Human-readable cause.
        detail: String,
    },
    /// The file does not start with this format's [`crate::MAGIC`].
    BadMagic,
    /// The file is shorter than the magic header.
    TruncatedMagic,
    /// Fewer than 8 bytes remain where a frame header was expected — a
    /// truncated length prefix.
    TruncatedLength {
        /// Byte offset of the incomplete header.
        offset: usize,
    },
    /// The length prefix promises more payload bytes than the file holds —
    /// a torn tail record.
    TornRecord {
        /// Byte offset of the frame header.
        offset: usize,
        /// Payload bytes the length prefix promised.
        promised: usize,
        /// Payload bytes actually present.
        present: usize,
    },
    /// The payload checksum does not match the frame's CRC field.
    BadCrc {
        /// Byte offset of the frame header.
        offset: usize,
        /// CRC stored in the frame.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload parsed under a valid CRC but is not a well-formed
    /// record (unknown tag, short field, trailing garbage).
    BadRecord {
        /// Byte offset of the frame header.
        offset: usize,
        /// What was malformed.
        detail: String,
    },
    /// The record stream is well-formed but semantically unreplayable
    /// (a commit epoch never allocated, a write to an unseeded key, a
    /// duplicate init, …).
    Replay {
        /// What the replay tripped over.
        detail: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, detail } => write!(f, "wal i/o failure during {op}: {detail}"),
            WalError::BadMagic => write!(f, "not a wal file (bad magic)"),
            WalError::TruncatedMagic => write!(f, "file shorter than the wal magic header"),
            WalError::TruncatedLength { offset } => {
                write!(f, "truncated length prefix at byte {offset}")
            }
            WalError::TornRecord { offset, promised, present } => {
                write!(f, "torn record at byte {offset}: {present} of {promised} payload bytes")
            }
            WalError::BadCrc { offset, stored, computed } => {
                write!(f, "crc mismatch at byte {offset}: stored {stored:#010x}, computed {computed:#010x}")
            }
            WalError::BadRecord { offset, detail } => {
                write!(f, "malformed record at byte {offset}: {detail}")
            }
            WalError::Replay { detail } => write!(f, "unreplayable log: {detail}"),
        }
    }
}

impl std::error::Error for WalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert!(WalError::BadMagic.to_string().contains("magic"));
        let e = WalError::BadCrc { offset: 8, stored: 1, computed: 2 };
        assert!(e.to_string().contains("crc mismatch at byte 8"));
        let e = WalError::TornRecord { offset: 16, promised: 40, present: 3 };
        assert!(e.to_string().contains("3 of 40"));
    }
}
