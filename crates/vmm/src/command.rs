//! The VStore++ command-packet wire protocol.
//!
//! "Every method call in VStore++ is converted into a command. The command
//! based interface is used for communicating between virtual machines and
//! remote nodes. Each command packet consists of packet length, command
//! type, the requesting service ID, VMs domain ID, shared memory reference
//! and command data. … Commands are usually less than 50 bytes."
//!
//! This module implements that packet format for real: fixed little-endian
//! header plus a variable payload, with a strict decoder.

use crate::vm::DomId;

/// Command packet header size in bytes:
/// `u16 len + u8 type + u32 service + u32 dom + u64 shm_ref`.
pub const HEADER_LEN: usize = 2 + 1 + 4 + 4 + 8;

/// Maximum encodable packet length (the length field is a `u16`).
pub const MAX_PACKET_LEN: usize = u16::MAX as usize;

/// The operation a command packet requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CommandType {
    /// Map a file to a new object and create its metadata.
    CreateObject = 1,
    /// Transfer an object into VStore++ for storage.
    StoreObject = 2,
    /// Retrieve an object.
    FetchObject = 3,
    /// Run a service on a stored object.
    Process = 4,
    /// Retrieve an object and run a service on it.
    FetchProcess = 5,
    /// Positive acknowledgement (blocking stores "incur the cost of an
    /// additional acknowledgement").
    Ack = 6,
    /// Negative acknowledgement with an error payload.
    Nack = 7,
}

impl CommandType {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => CommandType::CreateObject,
            2 => CommandType::StoreObject,
            3 => CommandType::FetchObject,
            4 => CommandType::Process,
            5 => CommandType::FetchProcess,
            6 => CommandType::Ack,
            7 => CommandType::Nack,
            _ => return None,
        })
    }
}

/// Errors produced by [`CommandPacket::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a header.
    Truncated {
        /// Bytes available.
        got: usize,
    },
    /// The length field disagrees with the buffer.
    LengthMismatch {
        /// Length field value.
        declared: usize,
        /// Bytes available.
        got: usize,
    },
    /// Unknown command-type discriminant.
    UnknownType(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { got } => {
                write!(
                    f,
                    "packet truncated: {got} bytes < {HEADER_LEN}-byte header"
                )
            }
            DecodeError::LengthMismatch { declared, got } => {
                write!(f, "length field {declared} does not match buffer {got}")
            }
            DecodeError::UnknownType(t) => write!(f, "unknown command type {t}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// One VStore++ command packet.
///
/// # Examples
///
/// ```
/// use c4h_vmm::{CommandPacket, CommandType, DomId};
///
/// let pkt = CommandPacket::new(
///     CommandType::FetchObject,
///     7,
///     DomId(2),
///     0xDEAD_BEEF,
///     b"front-door.jpg".to_vec(),
/// );
/// let bytes = pkt.encode();
/// assert!(bytes.len() < 50, "commands are usually under 50 bytes");
/// assert_eq!(CommandPacket::decode(&bytes).unwrap(), pkt);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandPacket {
    /// The requested operation.
    pub command: CommandType,
    /// The requesting service's identifier.
    pub service_id: u32,
    /// The issuing VM's domain id.
    pub dom_id: DomId,
    /// Grant-table reference of the shared-memory region carrying bulk data.
    pub shm_ref: u64,
    /// Command-specific data (object name, processing command, …).
    pub data: Vec<u8>,
}

impl CommandPacket {
    /// Builds a packet.
    ///
    /// # Panics
    ///
    /// Panics if `data` would make the packet exceed [`MAX_PACKET_LEN`].
    pub fn new(
        command: CommandType,
        service_id: u32,
        dom_id: DomId,
        shm_ref: u64,
        data: Vec<u8>,
    ) -> Self {
        assert!(
            HEADER_LEN + data.len() <= MAX_PACKET_LEN,
            "command payload too large: {} bytes",
            data.len()
        );
        CommandPacket {
            command,
            service_id,
            dom_id,
            shm_ref,
            data,
        }
    }

    /// Total encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + self.data.len()
    }

    /// Serializes the packet to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.push(self.command as u8);
        out.extend_from_slice(&self.service_id.to_le_bytes());
        out.extend_from_slice(&self.dom_id.0.to_le_bytes());
        out.extend_from_slice(&self.shm_ref.to_le_bytes());
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses a packet from its wire form.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated buffers, length-field
    /// mismatches, or unknown command types.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        if bytes.len() < HEADER_LEN {
            return Err(DecodeError::Truncated { got: bytes.len() });
        }
        let declared = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        if declared != bytes.len() {
            return Err(DecodeError::LengthMismatch {
                declared,
                got: bytes.len(),
            });
        }
        let command = CommandType::from_u8(bytes[2]).ok_or(DecodeError::UnknownType(bytes[2]))?;
        let service_id = u32::from_le_bytes(bytes[3..7].try_into().expect("4 bytes"));
        let dom_id = DomId(u32::from_le_bytes(
            bytes[7..11].try_into().expect("4 bytes"),
        ));
        let shm_ref = u64::from_le_bytes(bytes[11..19].try_into().expect("8 bytes"));
        Ok(CommandPacket {
            command,
            service_id,
            dom_id,
            shm_ref,
            data: bytes[HEADER_LEN..].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CommandPacket {
        CommandPacket::new(
            CommandType::StoreObject,
            3,
            DomId(1),
            42,
            b"vacation.avi".to_vec(),
        )
    }

    #[test]
    fn roundtrip_preserves_fields() {
        let pkt = sample();
        let decoded = CommandPacket::decode(&pkt.encode()).unwrap();
        assert_eq!(decoded, pkt);
    }

    #[test]
    fn typical_commands_are_small() {
        assert!(sample().encoded_len() < 50);
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let err = CommandPacket::decode(&[1, 2, 3]).unwrap_err();
        assert_eq!(err, DecodeError::Truncated { got: 3 });
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0xFF); // trailing garbage
        let got = bytes.len();
        let err = CommandPacket::decode(&bytes).unwrap_err();
        assert_eq!(
            err,
            DecodeError::LengthMismatch {
                declared: got - 1,
                got
            }
        );
    }

    #[test]
    fn unknown_type_is_rejected() {
        let mut bytes = sample().encode();
        bytes[2] = 0xEE;
        assert_eq!(
            CommandPacket::decode(&bytes).unwrap_err(),
            DecodeError::UnknownType(0xEE)
        );
    }

    #[test]
    fn empty_payload_roundtrips() {
        let pkt = CommandPacket::new(CommandType::Ack, 0, DomId(5), 0, vec![]);
        assert_eq!(pkt.encoded_len(), HEADER_LEN);
        assert_eq!(CommandPacket::decode(&pkt.encode()).unwrap(), pkt);
    }

    proptest! {
        #[test]
        fn arbitrary_packets_roundtrip(
            cmd in 1u8..=7,
            service in any::<u32>(),
            dom in any::<u32>(),
            shm in any::<u64>(),
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            let pkt = CommandPacket::new(
                CommandType::from_u8(cmd).unwrap(),
                service,
                DomId(dom),
                shm,
                data,
            );
            prop_assert_eq!(CommandPacket::decode(&pkt.encode()).unwrap(), pkt);
        }

        #[test]
        fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = CommandPacket::decode(&bytes);
        }
    }
}
