//! Process credentials, as exchanged over the connection handshake.
//!
//! The paper: "The LabStor client initially connects to the LabStor Runtime
//! through a UNIX domain socket, providing process credentials to the
//! LabStor Runtime, which can be used for authentication." Here the
//! handshake is a method call, but the credential structure and the checks
//! built on it (permissions LabMod, ShmManager grants, LabStack modify
//! authority) are the same.

/// Identity of a *tenant*: the unit multi-tenant QoS policy attaches to.
///
/// Every connection handshake maps the client's domain to a `TenantId`
/// (declared explicitly, or derived from the uid — one tenant per user).
/// [`TenantId::NONE`] is the untenanted identity: administrative tooling,
/// the Runtime itself, and legacy callers; it is never rate-limited or
/// quota-bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The untenanted identity (no policy, no quota, no rate limit).
    pub const NONE: TenantId = TenantId(0);

    /// The raw tenant number.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// True for the untenanted identity.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

impl From<u32> for TenantId {
    fn from(v: u32) -> Self {
        TenantId(v)
    }
}

/// Identity of a client process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Credentials {
    /// Process id (simulated; unique per client connection domain).
    pub(crate) pid: u32,
    /// User id.
    pub uid: u32,
    /// Primary group id.
    pub gid: u32,
    /// Tenant this process bills to. Defaults to the uid (one tenant per
    /// user); override with [`Credentials::with_tenant`] when one user
    /// runs workloads under several policies.
    pub tenant: TenantId,
}

impl Credentials {
    /// The superuser identity (uid 0), used by administrative tooling.
    pub const ROOT: Credentials = Credentials {
        pid: 0,
        uid: 0,
        gid: 0,
        tenant: TenantId::NONE,
    };

    /// Construct credentials. The tenant defaults to the uid.
    pub fn new(pid: u32, uid: u32, gid: u32) -> Self {
        Credentials {
            pid,
            uid,
            gid,
            tenant: TenantId(uid),
        }
    }

    /// The same credentials billed to an explicit tenant.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// True for the superuser.
    pub(crate) fn is_root(&self) -> bool {
        self.uid == 0
    }

    /// Unix-style permission check against a `(owner_uid, owner_gid, mode)`
    /// triple. `want` is a 3-bit rwx mask (4=r, 2=w, 1=x).
    pub fn allows(&self, owner_uid: u32, owner_gid: u32, mode: u16, want: u16) -> bool {
        if self.is_root() {
            return true;
        }
        let perm_bits = if self.uid == owner_uid {
            (mode >> 6) & 0o7
        } else if self.gid == owner_gid {
            (mode >> 3) & 0o7
        } else {
            mode & 0o7
        };
        perm_bits & want == want
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_always_allowed() {
        assert!(Credentials::ROOT.allows(42, 42, 0o000, 0o7));
    }

    #[test]
    fn owner_bits_apply() {
        let c = Credentials::new(1, 100, 100);
        assert!(c.allows(100, 0, 0o600, 0o6));
        assert!(!c.allows(100, 0, 0o400, 0o2));
    }

    #[test]
    fn group_bits_apply() {
        let c = Credentials::new(1, 100, 50);
        assert!(c.allows(7, 50, 0o060, 0o6));
        assert!(!c.allows(7, 50, 0o600, 0o4));
    }

    #[test]
    fn tenant_defaults_to_uid_and_is_overridable() {
        let c = Credentials::new(1, 100, 100);
        assert_eq!(c.tenant, TenantId(100));
        let c = c.with_tenant(TenantId(7));
        assert_eq!(c.tenant.as_u32(), 7);
        assert!(Credentials::ROOT.tenant.is_none());
    }

    #[test]
    fn other_bits_apply() {
        let c = Credentials::new(1, 100, 100);
        assert!(c.allows(7, 7, 0o004, 0o4));
        assert!(!c.allows(7, 7, 0o004, 0o2));
    }
}
