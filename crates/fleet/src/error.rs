//! The fleet engine's typed error enum, converging into
//! [`eea_dse::EeaError`] like every other layer of the workspace (see
//! DESIGN.md §7/§8).

use std::error::Error;
use std::fmt;

use eea_can::{ChannelError, MirrorError, TransportError};
use eea_dse::EeaError;
use eea_netlist::{ScanError, SynthError};
use eea_sched::SchedError;

/// Error of the fleet campaign engine. Everything a hostile campaign
/// configuration or a degenerate design-space front can trigger surfaces
/// here as a typed value; the library layer never panics (policy header in
/// `lib.rs`).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The campaign requests zero vehicles.
    EmptyFleet,
    /// The campaign horizon is not a positive finite duration.
    InvalidHorizon(f64),
    /// The defect fraction lies outside `[0, 1]`.
    InvalidDefectFraction(f64),
    /// The shut-off window model is degenerate (non-positive or inverted
    /// window/gap bounds).
    InvalidShutoffModel,
    /// The gateway batch size is zero — uploads could never drain.
    ZeroBatchSize,
    /// The gateway ingest queue capacity is zero — every arrival would be
    /// shed before a worker could ever fold it.
    ZeroQueueCapacity,
    /// The gateway ingest queue is full; the arrival was shed (counted in
    /// the next snapshot's `shed` field). Callers under backpressure
    /// should [`drain`](crate::GatewayService::drain) and retry.
    Overloaded {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// An arrival named a vehicle index outside the fleet the gateway was
    /// provisioned for — an abuse-boundary rejection, not a fold error.
    UnknownVehicle {
        /// The out-of-range vehicle index.
        vehicle: u32,
        /// The provisioned fleet size (valid indices are `0..fleet`).
        fleet: u32,
    },
    /// An arrival carried a structurally malformed upload frame (the
    /// field-level taxonomy is in [`MalformedKind`]). Rejected with this
    /// typed error and counted in the gateway's `malformed` counter —
    /// never folded, never panicking, never silently shed.
    MalformedUpload {
        /// The vehicle index the arrival claimed.
        vehicle: u32,
        /// Which structural check the frame failed.
        kind: MalformedKind,
    },
    /// A blueprint's channel-impairment configuration is degenerate
    /// (rate outside `[0, 1)` or a zero truncation cap) — surfaced at
    /// campaign construction, never mid-simulation.
    Channel(ChannelError),
    /// No blueprint of the exploration front carries a diagnosable BIST
    /// session (finite transfer time and non-zero upload bandwidth), so no
    /// vehicle could ever produce fail data.
    NoDiagnosableBlueprint,
    /// The substrate CUT has no session-detectable fault — seeding defects
    /// would be meaningless.
    NoDetectableFault,
    /// The substrate CUT's intermediate-signature window is zero patterns
    /// long, so the session could never close a window.
    ZeroSignatureWindow,
    /// Substrate CUT synthesis failed.
    Synth(SynthError),
    /// Scan-chain insertion on the substrate CUT failed.
    Scan(ScanError),
    /// Schedule mirroring of a blueprint's functional messages failed.
    Mirror(MirrorError),
    /// The campaign's transport configuration is degenerate or a backend
    /// could not be built over a blueprint's message sets.
    Transport(TransportError),
    /// A blueprint's in-ECU task set is structurally invalid or its
    /// fixed-priority schedule misses a deadline — surfaced at campaign
    /// construction, never mid-simulation.
    Sched(SchedError),
    /// A blueprint carries a diagnosable SRAM BIST session, but the
    /// campaign was built without a [`MarchTest`](eea_bist::MarchTest)
    /// model to seed and diagnose memory faults from.
    MissingSramModel,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::EmptyFleet => write!(f, "campaign needs at least one vehicle"),
            FleetError::InvalidHorizon(h) => {
                write!(f, "campaign horizon must be positive and finite, got {h}")
            }
            FleetError::InvalidDefectFraction(p) => {
                write!(f, "defect fraction must lie in [0, 1], got {p}")
            }
            FleetError::InvalidShutoffModel => {
                write!(f, "shut-off window model has non-positive or inverted bounds")
            }
            FleetError::ZeroBatchSize => write!(f, "gateway upload batch size must be positive"),
            FleetError::ZeroQueueCapacity => {
                write!(f, "gateway ingest queue capacity must be positive")
            }
            FleetError::Overloaded { capacity } => {
                write!(f, "gateway ingest queue full ({capacity} pending), arrival shed")
            }
            FleetError::UnknownVehicle { vehicle, fleet } => {
                write!(f, "arrival from unknown vehicle {vehicle} (fleet size {fleet})")
            }
            FleetError::MalformedUpload { vehicle, kind } => {
                write!(f, "malformed upload frame from vehicle {vehicle}: {kind}")
            }
            FleetError::Channel(e) => write!(f, "blueprint channel: {e}"),
            FleetError::NoDiagnosableBlueprint => write!(
                f,
                "no blueprint carries a diagnosable BIST session (finite transfer, non-zero upload bandwidth)"
            ),
            FleetError::NoDetectableFault => {
                write!(f, "substrate CUT has no session-detectable fault to seed")
            }
            FleetError::ZeroSignatureWindow => {
                write!(f, "substrate CUT signature window must span at least one pattern")
            }
            FleetError::Synth(e) => write!(f, "substrate synthesis: {e}"),
            FleetError::Scan(e) => write!(f, "substrate scan insertion: {e}"),
            FleetError::Mirror(e) => write!(f, "blueprint mirroring: {e}"),
            FleetError::Transport(e) => write!(f, "blueprint transport: {e}"),
            FleetError::Sched(e) => write!(f, "blueprint task schedule: {e}"),
            FleetError::MissingSramModel => write!(
                f,
                "blueprint selects SRAM BIST sessions but the campaign has no March-test model"
            ),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FleetError::Synth(e) => Some(e),
            FleetError::Scan(e) => Some(e),
            FleetError::Mirror(e) => Some(e),
            FleetError::Transport(e) => Some(e),
            FleetError::Sched(e) => Some(e),
            FleetError::Channel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SynthError> for FleetError {
    fn from(e: SynthError) -> Self {
        FleetError::Synth(e)
    }
}

impl From<ScanError> for FleetError {
    fn from(e: ScanError) -> Self {
        FleetError::Scan(e)
    }
}

impl From<MirrorError> for FleetError {
    fn from(e: MirrorError) -> Self {
        FleetError::Mirror(e)
    }
}

impl From<TransportError> for FleetError {
    fn from(e: TransportError) -> Self {
        FleetError::Transport(e)
    }
}

impl From<SchedError> for FleetError {
    fn from(e: SchedError) -> Self {
        FleetError::Sched(e)
    }
}

impl From<ChannelError> for FleetError {
    fn from(e: ChannelError) -> Self {
        FleetError::Channel(e)
    }
}

/// The ways an upload frame can be structurally malformed — the typed
/// taxonomy behind [`FleetError::MalformedUpload`]. Each variant names
/// one field-level invariant the gateway checks before folding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MalformedKind {
    /// The accumulated BIST time is not a finite non-negative duration.
    NonFiniteBistTime,
    /// The embedded upload names a different vehicle than the arrival —
    /// a spliced or replayed frame.
    VehicleMismatch,
    /// The upload timestamp is not a finite non-negative instant.
    NonFiniteUploadTime,
    /// The claimed fail-data payload exceeds the on-chip fail-memory
    /// bound ([`eea_bist::FAIL_DATA_BYTES`]) — no real session produces
    /// it.
    OversizedFailData,
    /// The retransmission accounting is inconsistent (negative or
    /// non-finite overhead).
    NegativeRetransmit,
    /// The claimed fault index is outside the diagnosis dictionary of the
    /// upload's CUT family — diagnosing it would index past the model.
    UnknownFault,
}

impl fmt::Display for MalformedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MalformedKind::NonFiniteBistTime => write!(f, "non-finite or negative BIST time"),
            MalformedKind::VehicleMismatch => {
                write!(f, "embedded upload names a different vehicle")
            }
            MalformedKind::NonFiniteUploadTime => {
                write!(f, "non-finite or negative upload timestamp")
            }
            MalformedKind::OversizedFailData => {
                write!(f, "fail-data payload exceeds the fail-memory bound")
            }
            MalformedKind::NegativeRetransmit => {
                write!(f, "negative or non-finite retransmission overhead")
            }
            MalformedKind::UnknownFault => {
                write!(f, "fault index outside the family's diagnosis dictionary")
            }
        }
    }
}

/// Convergence into the workspace-wide taxonomy: the dependency direction
/// (`eea-fleet` builds *on* `eea-dse`) keeps the concrete type out of
/// [`EeaError`], so the conversion renders the message into the dedicated
/// `Fleet` variant. `?` in a `fn main() -> Result<_, EeaError>` binary
/// composes across both layers.
impl From<FleetError> for EeaError {
    fn from(e: FleetError) -> Self {
        EeaError::Fleet(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_into_eea_error() {
        let e: EeaError = FleetError::EmptyFleet.into();
        assert!(matches!(e, EeaError::Fleet(_)));
        assert!(e.to_string().contains("fleet:"));
        assert!(e.to_string().contains("at least one vehicle"));
    }

    #[test]
    fn gateway_variants_render_their_bounds() {
        let e = FleetError::Overloaded { capacity: 64 };
        assert!(e.to_string().contains("64 pending"));
        assert!(e.source().is_none());
        let e = FleetError::UnknownVehicle {
            vehicle: 9,
            fleet: 4,
        };
        assert!(e.to_string().contains("vehicle 9"));
        assert!(e.to_string().contains("fleet size 4"));
        assert!(FleetError::ZeroQueueCapacity
            .to_string()
            .contains("queue capacity"));
    }

    #[test]
    fn sched_and_sram_variants_render() {
        let e = FleetError::Sched(SchedError::InvalidMinSlice);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("task schedule"));
        let e: FleetError = SchedError::InvalidMinSlice.into();
        assert!(matches!(e, FleetError::Sched(_)));
        assert!(FleetError::MissingSramModel
            .to_string()
            .contains("March-test"));
        assert!(FleetError::MissingSramModel.source().is_none());
    }

    #[test]
    fn malformed_and_channel_variants_render() {
        let e = FleetError::MalformedUpload {
            vehicle: 17,
            kind: MalformedKind::VehicleMismatch,
        };
        assert!(e.to_string().contains("vehicle 17"));
        assert!(e.to_string().contains("different vehicle"));
        assert!(e.source().is_none());
        for kind in [
            MalformedKind::NonFiniteBistTime,
            MalformedKind::VehicleMismatch,
            MalformedKind::NonFiniteUploadTime,
            MalformedKind::OversizedFailData,
            MalformedKind::NegativeRetransmit,
            MalformedKind::UnknownFault,
        ] {
            assert!(!kind.to_string().is_empty());
        }
        let e = FleetError::Channel(ChannelError::ZeroTruncationCap);
        assert!(e.to_string().contains("channel"));
        assert!(e.source().is_some());
        let e: FleetError = ChannelError::ZeroTruncationCap.into();
        assert!(matches!(e, FleetError::Channel(_)));
    }

    #[test]
    fn sources_wrap_layers() {
        let e = FleetError::Mirror(MirrorError::NoMessages);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("mirroring"));
        assert!(FleetError::EmptyFleet.source().is_none());
        assert!(FleetError::ZeroSignatureWindow.source().is_none());
        assert!(FleetError::ZeroSignatureWindow
            .to_string()
            .contains("signature window"));
    }
}
