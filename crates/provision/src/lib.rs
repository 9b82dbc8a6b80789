//! Server provisioning policies for FaaS keep-alive (paper §5).
//!
//! - [`static_prov`] — **static provisioning**: pick a server memory size
//!   from a hit-ratio curve, either by a target hit ratio or at the
//!   curve's inflection point (maximum marginal utility).
//! - [`controller`] — **elastic dynamic scaling**: a proportional
//!   controller that watches the smoothed arrival rate and the observed
//!   miss speed (cold starts per second), and resizes the keep-alive cache
//!   by inverting the hit-ratio curve (Eq. 3), with a large error deadband
//!   (30 %) so only coarse diurnal shifts trigger changes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod static_prov;

pub use controller::{Controller, ControllerConfig, WindowStats};
pub use static_prov::{ProvisionPlan, StaticProvisioner};
