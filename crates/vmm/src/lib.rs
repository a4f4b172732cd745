//! Virtualization substrate for the Cloud4Home reproduction.
//!
//! The paper's prototype runs on Xen 3.3.0: applications live in guest VMs,
//! VStore++ lives in dom0, bulk data crosses a XenSocket shared-memory
//! channel, and every API call becomes a small command packet. The
//! calibration notes for this reproduction say to "skip hypervisor
//! specifics", so this crate models the *costs and constraints* of that
//! stack, not its mechanics — a host or a VM is the capacities its cost
//! functions read:
//!
//! * [`PlatformSpec`] — the testbed machine classes (Atom netbooks, quad
//!   desktop, EC2 extra-large);
//! * [`VmSpec`] — a VM's memory and VCPU grant, and whether it fits
//!   beside the control domain;
//! * [`XenChannelConfig`] — the shared-page inter-domain channel and its
//!   transfer cost, calibrated against Table I's inter-domain column;
//! * [`CommandPacket`] — the real, byte-exact command wire protocol
//!   ("packet length, command type, the requesting service ID, VMs domain
//!   ID, shared memory reference and command data");
//! * [`exec_time`] — Amdahl multi-core speedup plus a superlinear
//!   memory-pressure penalty (the effect that makes Figure 7's 128 MB VM
//!   lose to the remote cloud at 2 MB images);
//! * [`DiskModel`] — per-access latency plus sequential bandwidth.
//!
//! # Examples
//!
//! ```
//! use c4h_vmm::{CommandPacket, CommandType, DomId, XenChannelConfig};
//!
//! // The guest asks dom0 to fetch an object: a <50-byte command packet,
//! // then the object crosses the shared-memory channel.
//! let cmd = CommandPacket::new(CommandType::FetchObject, 1, DomId(1), 0x10, b"img.jpg".to_vec());
//! let wire = cmd.encode();
//! assert_eq!(CommandPacket::decode(&wire).unwrap(), cmd);
//!
//! let copy_cost = XenChannelConfig::prototype().transfer_time(1024 * 1024);
//! assert!(copy_cost.as_millis() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod channel;
mod command;
mod cpu;
mod disk;
mod platform;
mod vm;

pub use channel::XenChannelConfig;
pub use command::{CommandPacket, CommandType, DecodeError, DomId, HEADER_LEN, MAX_PACKET_LEN};
pub use cpu::{
    amdahl_speedup, exec_time, memory_pressure, ExecProfile, WorkUnits, THRASH_EXPONENT,
    VIRT_OVERHEAD,
};
pub use disk::DiskModel;
pub use platform::PlatformSpec;
pub use vm::VmSpec;
