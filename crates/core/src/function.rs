//! Function identities and static characteristics.
//!
//! A FaaS *function* is characterized (paper §3.1) by its memory footprint,
//! warm execution time, and cold execution time; the difference between
//! cold and warm is the *initialization overhead* that keep-alive avoids.

use crate::error::CoreError;
use faascache_util::{MemMb, SimDuration};
use std::collections::HashMap;
use std::fmt;

/// A dense, copyable function identifier assigned by [`FunctionRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(u32);

impl FunctionId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index (for deserialization and tests).
    pub const fn from_index(idx: u32) -> Self {
        FunctionId(idx)
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// A dense, copyable tenant identifier interned by [`FunctionRegistry`].
///
/// Tenant 0 is always the shared default tenant (named `"default"`):
/// functions registered without an explicit tenant land there, so
/// single-tenant deployments pay nothing for the tenant dimension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The shared default tenant.
    pub const DEFAULT: TenantId = TenantId(0);

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index (for deserialization and tests).
    pub const fn from_index(idx: u32) -> Self {
        TenantId(idx)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Name of the shared default tenant.
pub const DEFAULT_TENANT: &str = "default";

/// Static characteristics of a function.
///
/// # Examples
///
/// ```
/// use faascache_core::function::FunctionRegistry;
/// use faascache_util::{MemMb, SimDuration};
///
/// let mut reg = FunctionRegistry::new();
/// let id = reg.register(
///     "video-encode",
///     MemMb::new(500),
///     SimDuration::from_secs(53),
///     SimDuration::from_secs(56),
/// )?;
/// assert_eq!(reg.spec(id).init_overhead(), SimDuration::from_secs(3));
/// # Ok::<(), faascache_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSpec {
    id: FunctionId,
    name: String,
    mem: MemMb,
    warm_time: SimDuration,
    cold_time: SimDuration,
    tenant: TenantId,
    tenant_name: String,
}

impl FunctionSpec {
    /// The function's identifier.
    pub fn id(&self) -> FunctionId {
        self.id
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Memory footprint of one container of this function.
    pub fn mem(&self) -> MemMb {
        self.mem
    }

    /// Execution time when served by a warm container.
    pub fn warm_time(&self) -> SimDuration {
        self.warm_time
    }

    /// Execution time when a new container must be created and initialized.
    pub fn cold_time(&self) -> SimDuration {
        self.cold_time
    }

    /// Initialization overhead (`cold − warm`), the cost a warm start saves.
    pub fn init_overhead(&self) -> SimDuration {
        self.cold_time - self.warm_time
    }

    /// The tenant this function belongs to.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The name of the tenant this function belongs to.
    pub fn tenant_name(&self) -> &str {
        &self.tenant_name
    }
}

/// Registry interning functions by name and assigning dense ids.
///
/// Tenants are interned alongside functions: slot 0 is always the shared
/// [`DEFAULT_TENANT`], and [`register_in`](Self::register_in) interns new
/// tenant names on first use.
#[derive(Debug, Clone)]
pub struct FunctionRegistry {
    specs: Vec<FunctionSpec>,
    by_name: HashMap<String, FunctionId>,
    tenants: Vec<String>,
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        FunctionRegistry {
            specs: Vec::new(),
            by_name: HashMap::new(),
            tenants: vec![DEFAULT_TENANT.to_string()],
        }
    }
}

impl FunctionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a function under the shared default tenant.
    ///
    /// # Errors
    ///
    /// - [`CoreError::DuplicateFunction`] if `name` is already registered,
    /// - [`CoreError::ZeroSizeFunction`] if `mem` is zero,
    /// - [`CoreError::InvalidTimes`] if `warm_time > cold_time`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        mem: MemMb,
        warm_time: SimDuration,
        cold_time: SimDuration,
    ) -> Result<FunctionId, CoreError> {
        self.register_in(name, mem, warm_time, cold_time, DEFAULT_TENANT)
    }

    /// Registers a function under `tenant`, interning the tenant name on
    /// first use. An empty tenant name means the shared default tenant.
    ///
    /// # Errors
    ///
    /// Same as [`register`](Self::register).
    pub fn register_in(
        &mut self,
        name: impl Into<String>,
        mem: MemMb,
        warm_time: SimDuration,
        cold_time: SimDuration,
        tenant: &str,
    ) -> Result<FunctionId, CoreError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(CoreError::DuplicateFunction { name });
        }
        if mem.is_zero() {
            return Err(CoreError::ZeroSizeFunction { name });
        }
        if warm_time > cold_time {
            return Err(CoreError::InvalidTimes { name });
        }
        let tenant = self.intern_tenant(tenant);
        let id = FunctionId(self.specs.len() as u32);
        self.specs.push(FunctionSpec {
            id,
            name: name.clone(),
            mem,
            warm_time,
            cold_time,
            tenant,
            tenant_name: self.tenants[tenant.index()].clone(),
        });
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Interns `tenant` (empty = default) and returns its dense id.
    pub fn intern_tenant(&mut self, tenant: &str) -> TenantId {
        if tenant.is_empty() {
            return TenantId::DEFAULT;
        }
        match self.tenants.iter().position(|t| t == tenant) {
            Some(idx) => TenantId(idx as u32),
            None => {
                self.tenants.push(tenant.to_string());
                TenantId((self.tenants.len() - 1) as u32)
            }
        }
    }

    /// Re-homes a registered function into `tenant`, interning the tenant
    /// name on first use (used to retrofit tenant assignments onto
    /// registries built by tenant-unaware tooling).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn set_tenant(&mut self, id: FunctionId, tenant: &str) {
        let t = self.intern_tenant(tenant);
        let name = self.tenants[t.index()].clone();
        let spec = &mut self.specs[id.index()];
        spec.tenant = t;
        spec.tenant_name = name;
    }

    /// The interned name of `tenant`, or `None` if it was never interned.
    pub fn tenant_name(&self, tenant: TenantId) -> Option<&str> {
        self.tenants.get(tenant.index()).map(String::as_str)
    }

    /// The spec for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this registry.
    pub fn spec(&self, id: FunctionId) -> &FunctionSpec {
        &self.specs[id.index()]
    }

    /// Looks up a function by name.
    pub fn find(&self, name: &str) -> Option<&FunctionSpec> {
        self.by_name.get(name).map(|&id| self.spec(id))
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Iterates over all specs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &FunctionSpec> {
        self.specs.iter()
    }

    /// Total memory if one container of every function were resident.
    pub fn total_mem(&self) -> MemMb {
        self.specs.iter().map(|s| s.mem()).sum()
    }
}

impl<'a> IntoIterator for &'a FunctionRegistry {
    type Item = &'a FunctionSpec;
    type IntoIter = std::slice::Iter<'a, FunctionSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.specs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> FunctionRegistry {
        FunctionRegistry::new()
    }

    #[test]
    fn register_and_lookup() {
        let mut r = reg();
        let id = r
            .register(
                "web",
                MemMb::new(64),
                SimDuration::from_millis(400),
                SimDuration::from_millis(2400),
            )
            .unwrap();
        assert_eq!(r.spec(id).name(), "web");
        assert_eq!(r.spec(id).mem(), MemMb::new(64));
        assert_eq!(r.spec(id).init_overhead(), SimDuration::from_millis(2000));
        assert_eq!(r.find("web").unwrap().id(), id);
        assert!(r.find("nope").is_none());
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut r = reg();
        r.register("a", MemMb::new(1), SimDuration::ZERO, SimDuration::ZERO)
            .unwrap();
        let err = r
            .register("a", MemMb::new(1), SimDuration::ZERO, SimDuration::ZERO)
            .unwrap_err();
        assert!(matches!(err, CoreError::DuplicateFunction { .. }));
    }

    #[test]
    fn zero_size_rejected() {
        let mut r = reg();
        let err = r
            .register("z", MemMb::ZERO, SimDuration::ZERO, SimDuration::ZERO)
            .unwrap_err();
        assert!(matches!(err, CoreError::ZeroSizeFunction { .. }));
    }

    #[test]
    fn warm_exceeding_cold_rejected() {
        let mut r = reg();
        let err = r
            .register(
                "w",
                MemMb::new(1),
                SimDuration::from_secs(5),
                SimDuration::from_secs(2),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidTimes { .. }));
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut r = reg();
        let a = r
            .register("a", MemMb::new(1), SimDuration::ZERO, SimDuration::ZERO)
            .unwrap();
        let b = r
            .register("b", MemMb::new(2), SimDuration::ZERO, SimDuration::ZERO)
            .unwrap();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert!(a < b);
        let names: Vec<_> = r.iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(r.total_mem(), MemMb::new(3));
    }

    #[test]
    fn tenants_intern_and_default() {
        let mut r = reg();
        let a = r
            .register("a", MemMb::new(1), SimDuration::ZERO, SimDuration::ZERO)
            .unwrap();
        let b = r
            .register_in(
                "b",
                MemMb::new(1),
                SimDuration::ZERO,
                SimDuration::ZERO,
                "acme",
            )
            .unwrap();
        let c = r
            .register_in(
                "c",
                MemMb::new(1),
                SimDuration::ZERO,
                SimDuration::ZERO,
                "acme",
            )
            .unwrap();
        assert_eq!(r.spec(a).tenant(), TenantId::DEFAULT);
        assert_eq!(r.spec(a).tenant_name(), DEFAULT_TENANT);
        assert_eq!(r.spec(b).tenant(), TenantId::from_index(1));
        assert_eq!(r.spec(c).tenant(), r.spec(b).tenant());
        assert_eq!(r.tenant_name(TenantId::from_index(1)), Some("acme"));
        // Empty tenant means the shared default.
        let d = r
            .register_in("d", MemMb::new(1), SimDuration::ZERO, SimDuration::ZERO, "")
            .unwrap();
        assert_eq!(r.spec(d).tenant(), TenantId::DEFAULT);
        // Retrofit: move `a` into a fresh tenant.
        r.set_tenant(a, "beta");
        assert_eq!(r.spec(a).tenant(), TenantId::from_index(2));
        assert_eq!(r.spec(a).tenant_name(), "beta");
    }
}
