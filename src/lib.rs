//! # fgdsm — HPF communication optimization for fine-grain DSM
//!
//! A from-scratch Rust reproduction of *"Optimizing Communication in HPF
//! Programs for Fine-Grain Distributed Shared Memory"* (Satish Chandra and
//! James R. Larus, PPoPP 1997): a mini-HPF compiler front end whose access
//! analysis inserts run-time calls that bypass a fine-grain DSM's default
//! coherence protocol with compiler-orchestrated, sender-initiated block
//! transfers.
//!
//! This crate is a facade re-exporting the subsystem crates:
//!
//! * [`tempest`] — the simulated Tempest-style cluster substrate
//!   (fine-grain access control, active-message cost model, virtual time);
//! * [`protocol`] — the default eager-invalidate multiple-writer RC
//!   protocol plus the §4.2 compiler-directed primitives and the
//!   message-passing backend;
//! * [`section`] — the omega-lite array-section algebra;
//! * [`net`] — the socket-backed multi-process transport behind the
//!   `tcp` backend: loopback TCP / Unix-domain links to spawned
//!   `fgdsm-node` worker processes;
//! * [`hpf`] — the mini-HPF IR, access-set analysis, planner and
//!   executors (the paper's contribution);
//! * [`apps`] — the six-application benchmark suite of Table 2.
//!
//! ## Quickstart
//!
//! ```
//! use fgdsm::hpf::{execute, ExecConfig};
//! use fgdsm::apps::{jacobi, Scale};
//!
//! let params = jacobi::Params::at(Scale::Test);
//! let program = jacobi::build(&params);
//! let unopt = execute(&program, &ExecConfig::sm_unopt(8));
//! let opt = execute(&program, &ExecConfig::sm_opt(8));
//! assert!(opt.report.avg_misses() < unopt.report.avg_misses());
//! assert_eq!(opt.array(&program, jacobi::A), unopt.array(&program, jacobi::A));
//! ```

#![forbid(unsafe_code)]

pub use fgdsm_apps as apps;
pub use fgdsm_hpf as hpf;
pub use fgdsm_net as net;
pub use fgdsm_protocol as protocol;
pub use fgdsm_section as section;
pub use fgdsm_tempest as tempest;
