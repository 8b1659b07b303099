//! Simulator configuration.

use serde::{Deserialize, Serialize};

use swcc_core::system::BusSystemModel;
use swcc_trace::{Addr, AddressLayout};

use crate::cache::{check_geometry, GeometryError};
use crate::protocol::ProtocolKind;

/// Which interconnect the simulated machine uses.
///
/// The paper's simulator is bus-based; the network variant lets the
/// trace-driven machine run the software schemes over the same
/// circuit-switched multistage fabric the analytical model assumes
/// (Table 9 costs, per-link FCFS path reservation). Snoopy protocols
/// (Dragon, Write-Invalidate) require the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InterconnectKind {
    /// A single shared snoopy bus (Table 1 costs).
    Bus,
    /// An unbuffered circuit-switched multistage network with the given
    /// stage count; the machine must have exactly `2^stages` processors.
    Network {
        /// Switch stages (`2^stages` processors and memory modules).
        stages: u32,
    },
}

/// How the software schemes decide an address is shared.
///
/// In real systems this is a page-table tag; in the simulator it is a
/// predicate over addresses. The synthetic generator places all shared
/// data above [`AddressLayout::SHARED_BASE`], which is the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SharedPolicy {
    /// Addresses at or above the given base are shared.
    AboveBase(u64),
}

impl SharedPolicy {
    /// Whether `addr` is treated as shared.
    pub fn is_shared(self, addr: Addr) -> bool {
        match self {
            SharedPolicy::AboveBase(base) => addr.0 >= base,
        }
    }
}

impl Default for SharedPolicy {
    fn default() -> Self {
        SharedPolicy::AboveBase(AddressLayout::SHARED_BASE)
    }
}

/// How long a bus transaction holds the bus.
///
/// The paper's simulator uses the **fixed** Table 1 service times; its
/// analytical model assumes **exponential** service. In the
/// `ext_service` experiment the exponential simulation lands farther
/// from the model's contention than the fixed one at 2, 4 and 8 CPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ServiceDiscipline {
    /// Deterministic Table 1 service times (the paper's simulator).
    #[default]
    Fixed,
    /// Exponentially distributed service with the Table 1 means (the
    /// analytical model's assumption), stochastically rounded to whole
    /// cycles so the mean is preserved.
    Exponential,
}

/// Full configuration of a simulation run.
///
/// Defaults match the paper's validation setup: 64 KiB direct-mapped
/// combined caches with 16-byte blocks and the Table 1 bus timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    protocol: ProtocolKind,
    cache_bytes: u64,
    ways: usize,
    block_bits: u32,
    system: BusSystemModel,
    shared_policy: SharedPolicy,
    service: ServiceDiscipline,
    seed: u64,
    interconnect: InterconnectKind,
}

impl SimConfig {
    /// Starts building a configuration for the given protocol.
    pub fn builder(protocol: ProtocolKind) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                protocol,
                cache_bytes: 64 * 1024,
                ways: 1,
                block_bits: 4,
                system: BusSystemModel::new(),
                shared_policy: SharedPolicy::default(),
                service: ServiceDiscipline::Fixed,
                seed: 0x5e1f,
                interconnect: InterconnectKind::Bus,
            },
        }
    }

    /// A configuration with all defaults for the given protocol.
    pub fn new(protocol: ProtocolKind) -> Self {
        SimConfig::builder(protocol).build()
    }

    /// The simulated coherence protocol.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Per-processor cache capacity in bytes.
    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes
    }

    /// Cache associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Block-offset bits (4 ⇒ 16-byte blocks).
    pub fn block_bits(&self) -> u32 {
        self.block_bits
    }

    /// The bus timing model (Table 1 by default).
    pub fn system(&self) -> &BusSystemModel {
        &self.system
    }

    /// The shared-address predicate used by No-Cache.
    pub fn shared_policy(&self) -> SharedPolicy {
        self.shared_policy
    }

    /// The bus service-time discipline.
    pub fn service(&self) -> ServiceDiscipline {
        self.service
    }

    /// RNG seed for stochastic service disciplines.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The machine's interconnect.
    pub fn interconnect(&self) -> InterconnectKind {
        self.interconnect
    }
}

/// Builder for [`SimConfig`] (non-consuming, per C-BUILDER).
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the per-processor cache capacity in bytes.
    pub fn cache_bytes(&mut self, bytes: u64) -> &mut Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Sets the associativity.
    pub fn ways(&mut self, ways: usize) -> &mut Self {
        self.config.ways = ways;
        self
    }

    /// Sets the block-offset bits.
    pub fn block_bits(&mut self, bits: u32) -> &mut Self {
        self.config.block_bits = bits;
        self
    }

    /// Replaces the bus timing model.
    pub fn system(&mut self, system: BusSystemModel) -> &mut Self {
        self.config.system = system;
        self
    }

    /// Replaces the shared-address predicate.
    pub fn shared_policy(&mut self, policy: SharedPolicy) -> &mut Self {
        self.config.shared_policy = policy;
        self
    }

    /// Selects the bus service-time discipline.
    pub fn service(&mut self, service: ServiceDiscipline) -> &mut Self {
        self.config.service = service;
        self
    }

    /// Sets the RNG seed used by stochastic service disciplines.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Puts the machine on a circuit-switched multistage network of
    /// `stages` stages instead of the bus (Table 9 costs).
    pub fn network(&mut self, stages: u32) -> &mut Self {
        self.config.interconnect = InterconnectKind::Network { stages };
        self
    }

    /// Checks the cache geometry set so far, without building a cache
    /// (see [`check_geometry`]): the error [`SimConfigBuilder::build`]
    /// would panic with.
    ///
    /// # Errors
    ///
    /// The [`GeometryError`] of a degenerate geometry.
    pub fn check_geometry(&self) -> Result<(), GeometryError> {
        let c = &self.config;
        check_geometry(c.cache_bytes, c.ways, c.block_bits).map(|_| ())
    }

    /// Validates and returns the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate cache geometry (see
    /// [`SimConfigBuilder::check_geometry`], which reports it as an
    /// error instead) or if a snoopy protocol is combined with a network
    /// interconnect.
    pub fn build(&self) -> SimConfig {
        if let Err(e) = self.check_geometry() {
            panic!("{e}");
        }
        if matches!(self.config.interconnect, InterconnectKind::Network { .. }) {
            assert!(
                !self.config.protocol.requires_bus(),
                "{} is a snoopy protocol and requires a bus interconnect",
                self.config.protocol
            );
        }
        self.config.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_validation_setup() {
        let c = SimConfig::new(ProtocolKind::Dragon);
        assert_eq!(c.cache_bytes(), 64 * 1024);
        assert_eq!(c.ways(), 1);
        assert_eq!(c.block_bits(), 4);
        assert_eq!(c.protocol(), ProtocolKind::Dragon);
    }

    #[test]
    fn shared_policy_threshold() {
        let p = SharedPolicy::default();
        assert!(p.is_shared(Addr(AddressLayout::SHARED_BASE)));
        assert!(!p.is_shared(Addr(AddressLayout::SHARED_BASE - 1)));
    }

    #[test]
    fn builder_overrides() {
        let mut b = SimConfig::builder(ProtocolKind::Base);
        b.cache_bytes(16 * 1024).ways(2).block_bits(5);
        let c = b.build();
        assert_eq!(c.cache_bytes(), 16 * 1024);
        assert_eq!(c.ways(), 2);
        assert_eq!(c.block_bits(), 5);
    }

    #[test]
    #[should_panic]
    fn builder_rejects_bad_geometry() {
        let mut b = SimConfig::builder(ProtocolKind::Base);
        b.cache_bytes(48); // 3 blocks, direct-mapped: not a power of two
        let _ = b.build();
    }

    #[test]
    fn build_panics_on_exactly_the_geometries_the_check_rejects() {
        for (bytes, ways, bits) in [
            (48, 1, 4),
            (48 * 1024, 1, 4),
            (64 * 1024, 0, 4),
            (64, 3, 4),
            (0, 1, 4),
            (100, 1, 4),
            (1024, 1, 64),
            (48, 3, 4),
            (16 * 1024, 2, 5),
        ] {
            let mut b = SimConfig::builder(ProtocolKind::Base);
            b.cache_bytes(bytes).ways(ways).block_bits(bits);
            let built = std::panic::catch_unwind(|| b.build());
            match b.check_geometry() {
                Ok(()) => assert!(built.is_ok(), "{bytes} B, {ways} ways"),
                Err(e) => {
                    let panic = built.expect_err("build rejects a bad geometry");
                    assert_eq!(panic.downcast_ref::<String>(), Some(&e.to_string()));
                }
            }
        }
    }
}
