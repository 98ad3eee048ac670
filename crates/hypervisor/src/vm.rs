//! Virtual machines: configuration, run state, and the in-memory object.

use serde::{Deserialize, Serialize};

use here_sim_core::rate::ByteSize;

use crate::cpuid::CpuidPolicy;
use crate::devices::{standard_device_set, DeviceInstance, GuestAgent};
use crate::dirty::DirtyTracker;
use crate::error::{HvError, HvResult};
use crate::kind::HypervisorKind;
use crate::memory::{GuestMemory, PageId};
use crate::vcpu::{Vcpu, VcpuId};

/// Identifier of a VM on one host (Xen would call it a domid).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct VmId(u64);

impl VmId {
    /// Creates a VM id.
    pub const fn new(raw: u64) -> Self {
        VmId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

/// Static configuration of a VM.
///
/// # Examples
///
/// ```
/// use here_hypervisor::vm::VmConfig;
/// use here_sim_core::rate::ByteSize;
///
/// let cfg = VmConfig::new("db-vm", ByteSize::from_gib(8), 4).unwrap();
/// assert_eq!(cfg.vcpus, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmConfig {
    /// Human-readable VM name.
    pub name: String,
    /// Guest memory size.
    pub memory: ByteSize,
    /// Number of vCPUs.
    pub vcpus: u32,
    /// CPUID policy override; `None` means "use the host's default policy".
    pub cpuid: Option<CpuidPolicy>,
}

impl VmConfig {
    /// Creates a VM configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::InvalidConfig`] if `vcpus` is zero or `memory`
    /// is not a positive multiple of the page size.
    pub fn new(name: impl Into<String>, memory: ByteSize, vcpus: u32) -> HvResult<Self> {
        if vcpus == 0 {
            return Err(HvError::InvalidConfig(
                "a VM needs at least one vCPU".into(),
            ));
        }
        // Validate memory eagerly by test-constructing the address space.
        GuestMemory::new(memory)?;
        Ok(VmConfig {
            name: name.into(),
            memory,
            vcpus,
            cpuid: None,
        })
    }

    /// Sets an explicit CPUID policy (the reconciled cross-hypervisor
    /// policy HERE installs before replication).
    pub fn with_cpuid(mut self, policy: CpuidPolicy) -> Self {
        self.cpuid = Some(policy);
        self
    }
}

/// Execution state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// Executing guest instructions.
    Running,
    /// Paused by the toolstack (checkpoint stop-and-copy window).
    Paused,
    /// A replica shell: memory and state are being loaded, the VM has never
    /// run on this host. Activating it moves it to [`RunState::Running`].
    Shell,
    /// Destroyed; only the id remains.
    Destroyed,
}

impl RunState {
    /// Lowercase label for error messages.
    pub fn label(self) -> &'static str {
        match self {
            RunState::Running => "running",
            RunState::Paused => "paused",
            RunState::Shell => "a replica shell",
            RunState::Destroyed => "destroyed",
        }
    }
}

/// A virtual machine resident on a simulated host.
#[derive(Debug, Clone)]
pub struct Vm {
    /// This VM's id on its host.
    pub id: VmId,
    config: VmConfig,
    memory: GuestMemory,
    vcpus: Vec<Vcpu>,
    devices: Vec<DeviceInstance>,
    agent: GuestAgent,
    dirty: DirtyTracker,
    run_state: RunState,
    cpuid: CpuidPolicy,
}

impl Vm {
    /// Builds a VM from `config` with `family`-native devices, in the given
    /// initial `run_state` ([`RunState::Running`] for a fresh boot,
    /// [`RunState::Shell`] for a replica target).
    pub(crate) fn build(
        id: VmId,
        config: VmConfig,
        family: HypervisorKind,
        host_cpuid: &CpuidPolicy,
        run_state: RunState,
    ) -> HvResult<Self> {
        let memory = GuestMemory::new(config.memory)?;
        let vcpus = (0..config.vcpus)
            .map(|i| Vcpu::new(VcpuId::new(i)))
            .collect();
        let devices = standard_device_set(family);
        let dirty = DirtyTracker::new(memory.num_pages(), config.vcpus as usize);
        let cpuid = config.cpuid.clone().unwrap_or_else(|| host_cpuid.clone());
        if !cpuid.is_subset_of(host_cpuid) {
            return Err(HvError::Incompatible(format!(
                "requested CPUID policy exposes features the {family} host does not offer"
            )));
        }
        Ok(Vm {
            id,
            agent: GuestAgent::new(devices.clone()),
            config,
            memory,
            vcpus,
            devices,
            dirty,
            run_state,
            cpuid,
        })
    }

    /// The VM's static configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// Current run state.
    pub fn run_state(&self) -> RunState {
        self.run_state
    }

    /// The effective CPUID policy the guest sees.
    pub fn cpuid(&self) -> &CpuidPolicy {
        &self.cpuid
    }

    /// Guest memory (read access).
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// Guest memory (mutable access, for replication state loading).
    pub fn memory_mut(&mut self) -> &mut GuestMemory {
        &mut self.memory
    }

    /// The vCPUs.
    pub fn vcpus(&self) -> &[Vcpu] {
        &self.vcpus
    }

    /// Mutable vCPU access.
    pub fn vcpus_mut(&mut self) -> &mut [Vcpu] {
        &mut self.vcpus
    }

    /// One vCPU by id.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::NoSuchVcpu`] for an out-of-range id.
    pub fn vcpu(&self, id: VcpuId) -> HvResult<&Vcpu> {
        self.vcpus
            .get(id.index() as usize)
            .ok_or(HvError::NoSuchVcpu(id.index()))
    }

    /// Mutable access to one vCPU.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::NoSuchVcpu`] for an out-of-range id.
    pub fn vcpu_mut(&mut self, id: VcpuId) -> HvResult<&mut Vcpu> {
        self.vcpus
            .get_mut(id.index() as usize)
            .ok_or(HvError::NoSuchVcpu(id.index()))
    }

    /// Attached devices.
    pub fn devices(&self) -> &[DeviceInstance] {
        &self.devices
    }

    /// Mutable device list (used by the device manager during failover).
    pub fn devices_mut(&mut self) -> &mut Vec<DeviceInstance> {
        &mut self.devices
    }

    /// The in-guest device-switch agent.
    pub fn agent(&self) -> &GuestAgent {
        &self.agent
    }

    /// Mutable agent access.
    pub fn agent_mut(&mut self) -> &mut GuestAgent {
        &mut self.agent
    }

    /// Dirty-tracking state.
    pub fn dirty(&self) -> &DirtyTracker {
        &self.dirty
    }

    /// Mutable dirty-tracking state.
    pub fn dirty_mut(&mut self) -> &mut DirtyTracker {
        &mut self.dirty
    }

    /// Records a guest write: bumps the page version and feeds both dirty
    /// tracking mechanisms. Only legal while the VM runs.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] if the VM is not running, or
    /// [`HvError::PageOutOfRange`] for a bad frame.
    pub fn guest_write(&mut self, page: PageId, vcpu: VcpuId) -> HvResult<()> {
        self.check_writable()?;
        self.memory.write_page(page, vcpu)?;
        self.dirty.record_write(page, vcpu.index() as usize);
        Ok(())
    }

    /// Records guest writes by `vcpu` to every frame of `[lo, hi)` in
    /// ascending order, leaving exactly the memory and dirty-tracking state
    /// of one [`guest_write`](Vm::guest_write) per frame. Only legal while
    /// the VM runs.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] if the VM is not running, or
    /// [`HvError::PageOutOfRange`] if the range leaves the address space
    /// (nothing is written then).
    pub fn guest_write_run(&mut self, lo: u64, hi: u64, vcpu: VcpuId) -> HvResult<()> {
        self.check_writable()?;
        self.memory.write_run(lo, hi, vcpu)?;
        self.dirty.record_run(lo, hi, vcpu.index() as usize);
        Ok(())
    }

    fn check_writable(&self) -> HvResult<()> {
        if self.run_state != RunState::Running {
            return Err(HvError::WrongRunState {
                op: "write guest memory",
                state: self.run_state.label(),
            });
        }
        Ok(())
    }

    /// Pauses a running VM.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] unless the VM is running.
    pub fn pause(&mut self) -> HvResult<()> {
        match self.run_state {
            RunState::Running => {
                self.run_state = RunState::Paused;
                Ok(())
            }
            other => Err(HvError::WrongRunState {
                op: "pause",
                state: other.label(),
            }),
        }
    }

    /// Resumes a paused VM.
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] unless the VM is paused.
    pub fn resume(&mut self) -> HvResult<()> {
        match self.run_state {
            RunState::Paused => {
                self.run_state = RunState::Running;
                Ok(())
            }
            other => Err(HvError::WrongRunState {
                op: "resume",
                state: other.label(),
            }),
        }
    }

    /// Activates a replica shell, making it a running VM (failover).
    ///
    /// # Errors
    ///
    /// Returns [`HvError::WrongRunState`] unless the VM is a shell.
    pub fn activate(&mut self) -> HvResult<()> {
        match self.run_state {
            RunState::Shell => {
                self.run_state = RunState::Running;
                Ok(())
            }
            other => Err(HvError::WrongRunState {
                op: "activate",
                state: other.label(),
            }),
        }
    }

    /// Marks the VM destroyed.
    pub fn destroy(&mut self) {
        self.run_state = RunState::Destroyed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> Vm {
        let cfg = VmConfig::new("t", ByteSize::from_mib(4), 2).unwrap();
        Vm::build(
            VmId::new(1),
            cfg,
            HypervisorKind::Xen,
            &CpuidPolicy::xen_default(),
            RunState::Running,
        )
        .unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(VmConfig::new("x", ByteSize::from_mib(4), 0).is_err());
        assert!(VmConfig::new("x", ByteSize::from_bytes(100), 1).is_err());
        assert!(VmConfig::new("x", ByteSize::from_mib(4), 1).is_ok());
    }

    #[test]
    fn guest_write_requires_running() {
        let mut vm = vm();
        vm.guest_write(PageId::new(1), VcpuId::new(0)).unwrap();
        vm.pause().unwrap();
        assert!(matches!(
            vm.guest_write(PageId::new(2), VcpuId::new(0)),
            Err(HvError::WrongRunState { .. })
        ));
    }

    #[test]
    fn guest_write_feeds_dirty_tracking_when_logging() {
        let mut vm = vm();
        vm.dirty_mut().enable_logging();
        vm.guest_write(PageId::new(7), VcpuId::new(1)).unwrap();
        assert!(vm.dirty().bitmap().is_dirty(PageId::new(7)));
        assert_eq!(vm.dirty().ring(1).unwrap().len(), 1);
        assert_eq!(vm.memory().page(PageId::new(7)).unwrap().version, 1);
    }

    #[test]
    fn run_state_machine() {
        let mut vm = vm();
        assert_eq!(vm.run_state(), RunState::Running);
        assert!(vm.resume().is_err());
        vm.pause().unwrap();
        assert!(vm.pause().is_err());
        vm.resume().unwrap();
        assert_eq!(vm.run_state(), RunState::Running);
        assert!(vm.activate().is_err());
        vm.destroy();
        assert!(vm.pause().is_err());
    }

    #[test]
    fn shell_activation() {
        let cfg = VmConfig::new("r", ByteSize::from_mib(4), 2).unwrap();
        let mut shell = Vm::build(
            VmId::new(2),
            cfg,
            HypervisorKind::Kvm,
            &CpuidPolicy::kvm_default(),
            RunState::Shell,
        )
        .unwrap();
        assert!(shell.guest_write(PageId::new(0), VcpuId::new(0)).is_err());
        shell.activate().unwrap();
        assert_eq!(shell.run_state(), RunState::Running);
    }

    #[test]
    fn incompatible_cpuid_is_rejected() {
        let cfg = VmConfig::new("x", ByteSize::from_mib(4), 1)
            .unwrap()
            .with_cpuid(CpuidPolicy::xen_default());
        // Xen's default policy exposes TSX/AVX-512 which KVM does not offer.
        let err = Vm::build(
            VmId::new(3),
            cfg,
            HypervisorKind::Kvm,
            &CpuidPolicy::kvm_default(),
            RunState::Shell,
        );
        assert!(matches!(err, Err(HvError::Incompatible(_))));
    }

    #[test]
    fn devices_match_host_family() {
        let vm = vm();
        assert!(vm
            .devices()
            .iter()
            .all(|d| d.model.family() == HypervisorKind::Xen));
        assert_eq!(vm.agent().devices().len(), 3);
    }
}
