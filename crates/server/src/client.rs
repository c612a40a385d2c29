//! A small blocking client for the wire protocol — the e2e tests' and
//! the benchmark's harness.
//!
//! The client is deliberately synchronous: one socket, one
//! [`FrameReader`], and a pending-frame queue so a caller waiting for
//! a specific reply (say, a `BatchAck`) can set aside the unsolicited
//! frames (top-k deltas) that arrive interleaved with it and consume
//! them later in arrival order.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use indoor_iupt::Record;

use crate::protocol::{Frame, FrameReader, ProtocolError, WireError, PROTOCOL_VERSION};

/// A connected protocol client. See the module docs.
pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    pending: VecDeque<Frame>,
    conn_id: u64,
}

impl Client {
    /// Connects, performs the Hello/Welcome handshake with the given
    /// [`crate::protocol::role`], and returns the ready client.
    pub fn connect<A: ToSocketAddrs>(addr: A, role: u8) -> Result<Client, WireError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut client = Client {
            reader: FrameReader::new(stream),
            writer,
            pending: VecDeque::new(),
            conn_id: 0,
        };
        client.send(&Frame::Hello {
            version: PROTOCOL_VERSION,
            role,
        })?;
        match client.recv()? {
            Some(Frame::Welcome { conn_id, .. }) => {
                client.conn_id = conn_id;
                Ok(client)
            }
            Some(Frame::Error { detail, .. }) => {
                Err(ProtocolError::Invalid(format!("handshake refused: {detail}")).into())
            }
            Some(_) => {
                Err(ProtocolError::Invalid("expected Welcome after Hello".to_string()).into())
            }
            None => Err(WireError::Io(io::Error::from(io::ErrorKind::UnexpectedEof))),
        }
    }

    /// The server-assigned connection id from the handshake.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// Sets or clears the socket read timeout (reads then fail with an
    /// [`WireError::is_interrupted`] error the caller can retry).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one frame.
    pub fn send(&mut self, frame: &Frame) -> Result<(), WireError> {
        frame.write_to(&mut self.writer)?;
        self.writer.flush()?;
        Ok(())
    }

    /// The next frame in arrival order: previously set-aside frames
    /// first, then the socket. `Ok(None)` is a clean server-side
    /// close.
    pub fn recv(&mut self) -> Result<Option<Frame>, WireError> {
        if let Some(frame) = self.pending.pop_front() {
            return Ok(Some(frame));
        }
        self.reader.next_frame()
    }

    /// Reads until a frame matches `want`, setting aside every other
    /// frame for later [`Client::recv`] calls. An EOF before a match
    /// is an error.
    pub fn wait_for<F: FnMut(&Frame) -> bool>(&mut self, mut want: F) -> Result<Frame, WireError> {
        if let Some(i) = self.pending.iter().position(&mut want) {
            // The queue preserves arrival order for the rest.
            if let Some(frame) = self.pending.remove(i) {
                return Ok(frame);
            }
        }
        loop {
            match self.reader.next_frame()? {
                Some(frame) if want(&frame) => return Ok(frame),
                Some(frame) => self.pending.push_back(frame),
                None => return Err(WireError::Io(io::Error::from(io::ErrorKind::UnexpectedEof))),
            }
        }
    }

    /// Registers a standing query and waits for its handle.
    /// Registration failures surface as
    /// [`ProtocolError::Invalid`]-flavoured errors.
    pub fn register(
        &mut self,
        k: u32,
        bucket_millis: i64,
        window_buckets: u32,
        slocs: &[u32],
    ) -> Result<u64, WireError> {
        self.send(&Frame::Register {
            k,
            bucket_millis,
            window_buckets,
            slocs: slocs.to_vec(),
        })?;
        match self.wait_for(|f| matches!(f, Frame::Registered { .. } | Frame::Error { .. }))? {
            Frame::Registered { query_id } => Ok(query_id),
            Frame::Error { detail, .. } => {
                Err(ProtocolError::Invalid(format!("register refused: {detail}")).into())
            }
            _ => Err(ProtocolError::Invalid("unexpected register reply".to_string()).into()),
        }
    }

    /// Removes a registered query and waits for the confirmation.
    pub fn unregister(&mut self, query_id: u64) -> Result<(), WireError> {
        self.send(&Frame::Unregister { query_id })?;
        match self.wait_for(|f| matches!(f, Frame::Unregistered { .. } | Frame::Error { .. }))? {
            Frame::Unregistered { .. } => Ok(()),
            Frame::Error { detail, .. } => {
                Err(ProtocolError::Invalid(format!("unregister refused: {detail}")).into())
            }
            _ => Err(ProtocolError::Invalid("unexpected unregister reply".to_string()).into()),
        }
    }

    /// Sends one ingest batch (no waiting; pair with
    /// [`Client::wait_batch_outcome`]).
    pub fn send_batch(&mut self, seq: u64, records: Vec<Record>) -> Result<(), WireError> {
        self.send(&Frame::IngestBatch { seq, records })
    }

    /// Waits for batch `seq`'s fate: `Ok(true)` on ack, `Ok(false)` on
    /// throttle (the caller should back off and re-send). A server
    /// [`Frame::Error`] — e.g. a time-order rejection — surfaces as an
    /// `Err` immediately: a rejection carries no seq, so a predicate
    /// keyed on the seq alone would set it aside forever and hang
    /// until the read timeout.
    pub fn wait_batch_outcome(&mut self, seq: u64) -> Result<bool, WireError> {
        let got = self.wait_for(|f| {
            matches!(f, Frame::BatchAck { seq: s, .. } | Frame::Throttle { seq: s, .. } if *s == seq)
                || matches!(f, Frame::Error { .. })
        })?;
        match got {
            Frame::BatchAck { .. } => Ok(true),
            Frame::Throttle { .. } => Ok(false),
            Frame::Error { detail, .. } => {
                Err(ProtocolError::Invalid(format!("batch {seq} refused: {detail}")).into())
            }
            _ => Err(ProtocolError::Invalid("unexpected batch reply".to_string()).into()),
        }
    }

    /// Declares this ingest stream finished (its watermark stops
    /// gating the merge).
    pub fn stream_end(&mut self) -> Result<(), WireError> {
        self.send(&Frame::StreamEnd)
    }

    /// Fetches the Prometheus text exposition over the binary
    /// protocol.
    pub fn metrics_text(&mut self) -> Result<String, WireError> {
        self.send(&Frame::MetricsRequest)?;
        match self.wait_for(|f| matches!(f, Frame::MetricsText { .. }))? {
            Frame::MetricsText { text } => Ok(text),
            _ => Err(ProtocolError::Invalid("unexpected metrics reply".to_string()).into()),
        }
    }
}
