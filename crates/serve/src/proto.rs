//! The service's framed wire protocol: one [`SubmitFrame`] per request
//! in, one [`AckFrame`] per decision out, both carried in
//! [`sb_wire::frame`] checksummed frames so a torn or corrupt stream is
//! detected instead of misparsed.
//!
//! The ack deliberately carries only the *decision* (price or reason),
//! not the reservation plan — the plan is operator-side state, durable in
//! the WAL; clients need the verdict and the bill.

use sb_cear::RejectReason;
use sb_demand::{Request, RequestId};
use sb_sim::journal::ShedReason;
use sb_wire::frame::{self, FrameStatus};
use sb_wire::{Reader, WireError, Writer};

/// Largest accepted frame payload (a request is well under this).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// One client request entering the service.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitFrame {
    /// Client-side sequence number, echoed in the matching ack.
    pub seq: u64,
    /// The booking request.
    pub request: Request,
}

/// The decision part of an [`AckFrame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AckVerdict {
    /// Admitted at this price.
    Admitted {
        /// The price charged.
        price: f64,
    },
    /// Rejected by the algorithm.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Dropped by load shedding.
    Shed {
        /// Why.
        reason: ShedReason,
    },
}

/// One decision leaving the service.
#[derive(Debug, Clone, PartialEq)]
pub struct AckFrame {
    /// Echo of the submission's sequence number.
    pub seq: u64,
    /// The request decided.
    pub request_id: RequestId,
    /// The decision.
    pub verdict: AckVerdict,
}

fn reject_tag(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::NoFeasiblePath => 0,
        RejectReason::PriceAboveValuation => 1,
        RejectReason::CommitFailed => 2,
    }
}

fn reject_from_tag(tag: u8) -> Result<RejectReason, WireError> {
    Ok(match tag {
        0 => RejectReason::NoFeasiblePath,
        1 => RejectReason::PriceAboveValuation,
        2 => RejectReason::CommitFailed,
        tag => return Err(WireError::BadTag { tag, context: "AckFrame RejectReason" }),
    })
}

fn shed_tag(reason: ShedReason) -> u8 {
    match reason {
        ShedReason::QueueFull => 0,
        ShedReason::DeadlineExceeded => 1,
    }
}

fn shed_from_tag(tag: u8) -> Result<ShedReason, WireError> {
    Ok(match tag {
        0 => ShedReason::QueueFull,
        1 => ShedReason::DeadlineExceeded,
        tag => return Err(WireError::BadTag { tag, context: "AckFrame ShedReason" }),
    })
}

impl SubmitFrame {
    /// Appends this submission as one checksummed frame.
    pub fn write(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new();
        w.u64(self.seq);
        self.request.encode(&mut w);
        frame::write_frame(out, &w.into_bytes());
    }

    /// Decodes a frame payload produced by [`SubmitFrame::write`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let request = Request::decode(&mut r)?;
        expect_exhausted(&r, "SubmitFrame")?;
        Ok(SubmitFrame { seq, request })
    }
}

impl AckFrame {
    /// Appends this ack as one checksummed frame.
    pub fn write(&self, out: &mut Vec<u8>) {
        let mut w = Writer::new();
        w.u64(self.seq);
        w.u32(self.request_id.0);
        match self.verdict {
            AckVerdict::Admitted { price } => {
                w.u8(0);
                w.f64(price);
            }
            AckVerdict::Rejected { reason } => {
                w.u8(1);
                w.u8(reject_tag(reason));
            }
            AckVerdict::Shed { reason } => {
                w.u8(2);
                w.u8(shed_tag(reason));
            }
        }
        frame::write_frame(out, &w.into_bytes());
    }

    /// Decodes a frame payload produced by [`AckFrame::write`].
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation, trailing bytes, or an unknown tag.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let request_id = RequestId(r.u32()?);
        let verdict = match r.u8()? {
            0 => AckVerdict::Admitted { price: r.f64()? },
            1 => AckVerdict::Rejected { reason: reject_from_tag(r.u8()?)? },
            2 => AckVerdict::Shed { reason: shed_from_tag(r.u8()?)? },
            tag => return Err(WireError::BadTag { tag, context: "AckFrame verdict" }),
        };
        expect_exhausted(&r, "AckFrame")?;
        Ok(AckFrame { seq, request_id, verdict })
    }
}

fn expect_exhausted(r: &Reader<'_>, context: &'static str) -> Result<(), WireError> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(WireError::Invalid { detail: format!("{context}: trailing bytes") })
    }
}

/// Splits a byte stream into decoded ack frames, stopping at the first
/// incomplete or corrupt frame (torn tail).
///
/// # Errors
///
/// [`WireError`] if a structurally complete frame fails to decode.
pub fn read_acks(mut buf: &[u8]) -> Result<Vec<AckFrame>, WireError> {
    let mut acks = Vec::new();
    while let FrameStatus::Complete { payload, consumed } = frame::read_frame(buf, MAX_PAYLOAD) {
        acks.push(AckFrame::decode(payload)?);
        buf = &buf[consumed..];
    }
    Ok(acks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_demand::RateProfile;
    use sb_topology::{NodeId, SlotIndex};

    fn request() -> Request {
        Request {
            id: RequestId(7),
            source: NodeId(1),
            destination: NodeId(2),
            rate: RateProfile::Constant(500.0),
            start: SlotIndex(3),
            end: SlotIndex(5),
            valuation: 1.25e6,
        }
    }

    #[test]
    fn submit_frame_roundtrips() {
        let frame_in = SubmitFrame { seq: 42, request: request() };
        let mut bytes = Vec::new();
        frame_in.write(&mut bytes);
        let FrameStatus::Complete { payload, consumed } = frame::read_frame(&bytes, MAX_PAYLOAD)
        else {
            panic!("frame did not read back");
        };
        assert_eq!(consumed, bytes.len());
        assert_eq!(SubmitFrame::decode(payload).unwrap(), frame_in);
    }

    #[test]
    fn ack_frames_roundtrip_every_verdict() {
        let verdicts = [
            AckVerdict::Admitted { price: 12.5 },
            AckVerdict::Rejected { reason: RejectReason::NoFeasiblePath },
            AckVerdict::Rejected { reason: RejectReason::PriceAboveValuation },
            AckVerdict::Rejected { reason: RejectReason::CommitFailed },
            AckVerdict::Shed { reason: ShedReason::QueueFull },
            AckVerdict::Shed { reason: ShedReason::DeadlineExceeded },
        ];
        let mut bytes = Vec::new();
        for (i, verdict) in verdicts.iter().enumerate() {
            AckFrame { seq: i as u64, request_id: RequestId(i as u32), verdict: *verdict }
                .write(&mut bytes);
        }
        let acks = read_acks(&bytes).unwrap();
        assert_eq!(acks.len(), verdicts.len());
        for (i, ack) in acks.iter().enumerate() {
            assert_eq!(ack.seq, i as u64);
            assert_eq!(ack.verdict, verdicts[i]);
        }
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let mut bytes = Vec::new();
        AckFrame { seq: 0, request_id: RequestId(0), verdict: AckVerdict::Admitted { price: 1.0 } }
            .write(&mut bytes);
        let whole = bytes.len();
        AckFrame { seq: 1, request_id: RequestId(1), verdict: AckVerdict::Admitted { price: 2.0 } }
            .write(&mut bytes);
        for cut in whole..bytes.len() {
            let acks = read_acks(&bytes[..cut]).unwrap();
            assert_eq!(acks.len(), 1, "cut at {cut}");
            assert_eq!(acks[0].seq, 0);
        }
    }

    #[test]
    fn truncated_payloads_error() {
        let frame_in = SubmitFrame { seq: 9, request: request() };
        let mut bytes = Vec::new();
        frame_in.write(&mut bytes);
        let FrameStatus::Complete { payload, .. } = frame::read_frame(&bytes, MAX_PAYLOAD) else {
            panic!("frame did not read back");
        };
        for cut in 0..payload.len() {
            assert!(SubmitFrame::decode(&payload[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut long = payload.to_vec();
        long.push(0);
        assert!(SubmitFrame::decode(&long).is_err());
        // Shed reason byte 2 is retired: seq, request id, verdict 2, reason 2.
        let mut retired = vec![0; 12];
        retired.extend([2, 2]);
        assert!(matches!(
            AckFrame::decode(&retired),
            Err(WireError::BadTag { tag: 2, context: "AckFrame ShedReason" })
        ));
    }
}
