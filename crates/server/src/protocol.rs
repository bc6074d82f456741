//! The `ljqo-server` wire protocol: a length-prefixed binary framing.
//!
//! # Connection handshake
//!
//! A binary client opens a TCP connection and sends five bytes: the
//! magic [`MAGIC`] (`LJQO`) followed by a single protocol [`VERSION`]
//! byte. The server closes connections whose magic does not match (after
//! attempting to interpret them as HTTP — see the crate docs) and
//! answers an unsupported version with an [`FrameType::Error`] frame
//! carrying code [`codes::UNSUPPORTED_VERSION`] before closing.
//!
//! # Frames
//!
//! After the handshake the connection carries a sequence of frames in
//! each direction, every frame laid out as:
//!
//! ```text
//! [ type: u8 ][ payload length: u32, big endian ][ payload bytes ]
//! ```
//!
//! Payloads are UTF-8 JSON documents (see `docs/SERVING.md` for the
//! schemas). Frame types:
//!
//! | byte | type            | direction        | payload                       |
//! |------|-----------------|------------------|-------------------------------|
//! | 0x01 | `Optimize`      | client → server  | `{"id": N, "query": {...}}`   |
//! | 0x02 | `Response`      | server → client  | per-request result or error   |
//! | 0x03 | `Stats`         | client → server  | empty (ignored)               |
//! | 0x04 | `StatsResponse` | server → client  | the `/stats` document         |
//! | 0x05 | `Error`         | server → client  | `{"code": "...", "error": _}` |
//!
//! Responses to pipelined `Optimize` frames may arrive in any order;
//! clients correlate by the echoed `id`. `Error` frames are reserved for
//! connection-level faults (bad version, oversized frame, unknown frame
//! type) and are always followed by the server closing the connection;
//! request-level failures (overload, invalid query, …) arrive as
//! `Response` frames with `"ok": false` so the `id` correlation
//! survives.
//!
//! # Round trip
//!
//! ```
//! use ljqo_server::protocol::{read_frame, write_frame, FrameType, DEFAULT_MAX_FRAME_BYTES};
//!
//! let payload = br#"{"id":7,"query":{}}"#;
//! let mut wire = Vec::new();
//! write_frame(&mut wire, FrameType::Optimize, payload).unwrap();
//! assert_eq!(wire.len(), 5 + payload.len());
//!
//! let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES)
//!     .unwrap()
//!     .expect("not EOF");
//! assert_eq!(frame.kind, FrameType::Optimize);
//! assert_eq!(frame.payload, payload);
//! // A clean close between frames reads as `None`, not an error.
//! assert!(read_frame(&mut [].as_slice(), DEFAULT_MAX_FRAME_BYTES)
//!     .unwrap()
//!     .is_none());
//! ```

use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes a binary client sends first; anything else is treated as
/// HTTP.
pub const MAGIC: [u8; 4] = *b"LJQO";

/// Current protocol version, sent as the fifth handshake byte. The
/// server rejects other versions rather than guessing.
pub const VERSION: u8 = 1;

/// Default cap on a frame's payload size. A frame whose declared length
/// exceeds the cap is rejected *before* reading the payload, so a
/// corrupt length prefix cannot make the server allocate gigabytes.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 4 << 20;

/// Bytes of frame header (type byte + length prefix).
pub const HEADER_LEN: usize = 5;

/// Stable error-code strings used in `Response` / `Error` payloads.
///
/// `Response` frames with `"ok": false` carry one of these in `"code"`;
/// `Error` frames always do. See `docs/SERVING.md` for the full table
/// with remediation notes.
pub mod codes {
    /// Admission queue is full; retry with backoff or add capacity.
    pub const OVERLOAD: &str = "overload";
    /// Server is draining after SIGTERM; no new work is admitted.
    pub const DRAINING: &str = "draining";
    /// Payload was not valid JSON or lacked required fields.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The query failed catalog validation (unknown relation, bad
    /// selectivity, …).
    pub const INVALID_QUERY: &str = "invalid_query";
    /// The optimizer could not produce any plan for a valid query.
    pub const OPTIMIZER_FAILED: &str = "optimizer_failed";
    /// Handshake version byte differs from [`super::VERSION`].
    pub const UNSUPPORTED_VERSION: &str = "unsupported_version";
    /// Declared payload length exceeds the server's frame cap.
    pub const FRAME_TOO_LARGE: &str = "frame_too_large";
    /// Unknown frame type or malformed framing; the connection closes.
    pub const PROTOCOL_ERROR: &str = "protocol_error";
}

/// Frame type byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client request: optimize one query.
    Optimize = 0x01,
    /// Server reply to one [`FrameType::Optimize`], correlated by id.
    Response = 0x02,
    /// Client request: send the stats document.
    Stats = 0x03,
    /// Server reply to [`FrameType::Stats`].
    StatsResponse = 0x04,
    /// Connection-level fault; the server closes after sending it.
    Error = 0x05,
}

impl FrameType {
    /// Parse a wire byte.
    pub fn from_byte(b: u8) -> Option<FrameType> {
        match b {
            0x01 => Some(FrameType::Optimize),
            0x02 => Some(FrameType::Response),
            0x03 => Some(FrameType::Stats),
            0x04 => Some(FrameType::StatsResponse),
            0x05 => Some(FrameType::Error),
            _ => None,
        }
    }

    /// The wire byte.
    pub fn byte(self) -> u8 {
        self as u8
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame is.
    pub kind: FrameType,
    /// Raw payload bytes (UTF-8 JSON for every current frame type).
    pub payload: Vec<u8>,
}

/// Write the five-byte connection handshake ([`MAGIC`] + [`VERSION`]).
pub fn write_handshake(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&MAGIC)?;
    w.write_all(&[VERSION])
}

/// Read and check the handshake; returns the client's version byte.
/// Fails with `InvalidData` if the magic does not match.
pub fn read_handshake(r: &mut impl Read) -> io::Result<u8> {
    let mut head = [0u8; HEADER_LEN];
    r.read_exact(&mut head)?;
    if head[..4] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "bad protocol magic",
        ));
    }
    Ok(head[4])
}

/// Encode one frame onto `w`. The payload length must fit in a `u32`.
pub fn write_frame(w: &mut impl Write, kind: FrameType, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "payload exceeds u32 length"))?;
    let mut header = [0u8; HEADER_LEN];
    header[0] = kind.byte();
    header[1..].copy_from_slice(&len.to_be_bytes());
    w.write_all(&header)?;
    w.write_all(payload)
}

/// The cause [`read_frame`] attaches to the `InvalidData` error for a
/// frame whose declared payload exceeds the cap, so callers can tell it
/// from other framing errors by type instead of by message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge {
    /// Declared payload length, in bytes.
    pub len: usize,
    /// The cap it exceeded, in bytes.
    pub cap: usize,
}

impl fmt::Display for FrameTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frame payload of {} bytes exceeds cap of {}",
            self.len, self.cap
        )
    }
}

impl std::error::Error for FrameTooLarge {}

/// The error-frame code for a [`read_frame`] failure:
/// [`codes::FRAME_TOO_LARGE`] when the error carries a [`FrameTooLarge`]
/// cause, [`codes::PROTOCOL_ERROR`] otherwise.
pub fn read_error_code(e: &io::Error) -> &'static str {
    match e
        .get_ref()
        .and_then(|cause| cause.downcast_ref::<FrameTooLarge>())
    {
        Some(_) => codes::FRAME_TOO_LARGE,
        None => codes::PROTOCOL_ERROR,
    }
}

/// Decode one frame from `r`.
///
/// Returns `Ok(None)` on a clean end-of-stream *before* the first header
/// byte (the peer closed between frames — the normal way a session
/// ends). A stream that ends mid-frame, declares a payload longer than
/// `max_payload` (an `InvalidData` error whose cause is a
/// [`FrameTooLarge`]), or carries an unknown type byte is an
/// `InvalidData`/`UnexpectedEof` error.
pub fn read_frame(r: &mut impl Read, max_payload: usize) -> io::Result<Option<Frame>> {
    // First byte by hand so a clean close is distinguishable from a
    // truncated frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let kind = FrameType::from_byte(first[0]).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown frame type byte 0x{:02x}", first[0]),
        )
    })?;
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > max_payload {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameTooLarge {
                len,
                cap: max_payload,
            },
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame { kind, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_frame_type() {
        for kind in [
            FrameType::Optimize,
            FrameType::Response,
            FrameType::Stats,
            FrameType::StatsResponse,
            FrameType::Error,
        ] {
            let payload = format!("{{\"kind\":{}}}", kind.byte());
            let mut wire = Vec::new();
            write_frame(&mut wire, kind, payload.as_bytes()).unwrap();
            let frame = read_frame(&mut wire.as_slice(), DEFAULT_MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            assert_eq!(frame.kind, kind);
            assert_eq!(frame.payload, payload.as_bytes());
            assert_eq!(FrameType::from_byte(kind.byte()), Some(kind));
        }
    }

    #[test]
    fn empty_payload_and_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Stats, b"").unwrap();
        assert_eq!(wire.len(), HEADER_LEN);
        let mut cursor = wire.as_slice();
        let frame = read_frame(&mut cursor, 16).unwrap().unwrap();
        assert_eq!(frame.kind, FrameType::Stats);
        assert!(frame.payload.is_empty());
        // Stream exhausted: clean EOF, not an error.
        assert!(read_frame(&mut cursor, 16).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_before_payload_read() {
        let mut wire = Vec::new();
        wire.push(FrameType::Optimize.byte());
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        // No payload bytes present at all — the cap must trip first.
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds cap"));
    }

    #[test]
    fn oversized_frame_maps_to_frame_too_large_by_type() {
        let mut wire = Vec::new();
        wire.push(FrameType::Stats.byte());
        wire.extend_from_slice(&2048u32.to_be_bytes());
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert_eq!(read_error_code(&err), codes::FRAME_TOO_LARGE);
        let cause = err
            .get_ref()
            .and_then(|c| c.downcast_ref::<FrameTooLarge>());
        assert_eq!(
            cause,
            Some(&FrameTooLarge {
                len: 2048,
                cap: 1024
            })
        );
        // The code follows the cause, not the message: the same words
        // without the typed cause are a plain protocol error.
        let lookalike = io::Error::new(io::ErrorKind::InvalidData, err.to_string());
        assert_eq!(read_error_code(&lookalike), codes::PROTOCOL_ERROR);
    }

    #[test]
    fn unknown_type_byte_is_invalid_data() {
        let wire = [0xEEu8, 0, 0, 0, 0];
        let err = read_frame(&mut wire.as_slice(), 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(read_error_code(&err), codes::PROTOCOL_ERROR);
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameType::Response, b"{\"ok\":true}").unwrap();
        wire.truncate(wire.len() - 3);
        let err = read_frame(&mut wire.as_slice(), 1024).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn handshake_round_trip_and_bad_magic() {
        let mut wire = Vec::new();
        write_handshake(&mut wire).unwrap();
        assert_eq!(read_handshake(&mut wire.as_slice()).unwrap(), VERSION);
        let err = read_handshake(&mut b"HTTP/1.1 ".as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
