//! Sensor actors: each subscribes to [`Topic::Tick`], slices the tick's
//! [`TickFrame`] from its own angle, and publishes downstream messages
//! ("Sensor monitors the metrics of a given process and then publish a
//! sensor message to the event bus" — §3).
//!
//! [`Topic::Tick`]: crate::msg::Topic::Tick
//! [`TickFrame`]: crate::frame::TickFrame

pub mod hpc;
pub mod powerspy;
pub mod procfs;
pub mod rapl;

pub use hpc::HpcSensor;
pub use powerspy::PowerSpySensor;
pub use procfs::ProcfsSensor;
pub use rapl::RaplSensor;
