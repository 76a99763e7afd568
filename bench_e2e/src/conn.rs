//! One client connection to the daemon, counting the frames and bytes
//! it moves. Request/response calls and pipelined sends share the same
//! length-delimited framing (`vcps_net::wire`).

use vcps_net::wire::{self, Response};
use vcps_net::NetClient;

/// A connection with frame and byte tallies (both directions, length
/// prefixes included).
#[derive(Debug)]
pub struct Conn {
    client: NetClient,
    /// Frames sent plus frames received.
    pub frames: u64,
    /// Bytes sent plus bytes received.
    pub bytes: u64,
}

impl Conn {
    /// Wraps a connected client.
    #[must_use]
    pub fn new(client: NetClient) -> Self {
        Self {
            client,
            frames: 0,
            bytes: 0,
        }
    }

    /// Sends one frame without waiting for its response.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), String> {
        wire::write_frame(self.client.stream(), payload).map_err(|e| format!("send: {e}"))?;
        self.frames += 1;
        self.bytes += payload.len() as u64 + 4;
        Ok(())
    }

    /// Reads and decodes the next response; a daemon error response is
    /// an `Err`.
    ///
    /// # Errors
    ///
    /// Transport, codec and daemon-reported failures.
    pub fn recv(&mut self) -> Result<Response, String> {
        let payload = wire::read_frame(self.client.stream(), u64::from(u32::MAX))
            .map_err(|e| format!("recv: {e}"))?;
        self.frames += 1;
        self.bytes += payload.len() as u64 + 4;
        match Response::decode(&payload).map_err(|e| format!("decode response: {e}"))? {
            Response::Error(msg) => Err(format!("daemon error: {msg}")),
            other => Ok(other),
        }
    }

    /// One request/response round trip.
    ///
    /// # Errors
    ///
    /// As [`send`](Self::send) and [`recv`](Self::recv).
    pub fn call(&mut self, payload: &[u8]) -> Result<Response, String> {
        self.send(payload)?;
        self.recv()
    }
}
