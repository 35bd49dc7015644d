//! The authentication registry: the Kerberos + PasswdEtc analogue (§3.7).
//!
//! The DEcorum authentication service is "based on Kerberos"; user and
//! group information comes from a PasswdEtc-style registry. This module
//! simulates the trust handshake — password check, ticket issue, ticket
//! verification, expiry — without real cryptography: the "session key"
//! is a random identifier that services validate against the registry.

use crate::proto::Ticket;
use dfs_types::lock::{rank, OrderedMutex};
use dfs_types::{DfsError, DfsResult, SimClock, Timestamp};
use std::collections::HashMap;

/// Default ticket lifetime (simulated): 10 hours, the Kerberos classic.
pub const TICKET_LIFETIME_US: u64 = 10 * 3600 * 1_000_000;

struct UserEntry {
    secret: u64,
    groups: Vec<u32>,
}

struct Session {
    user: u32,
    expires: Timestamp,
}

/// The user registry and ticket-granting service, shared by the KDC
/// front end and every verifying server.
pub struct AuthRegistry {
    clock: SimClock,
    inner: OrderedMutex<AuthInner, { rank::NET_AUTH }>,
}

struct AuthInner {
    users: HashMap<u32, UserEntry>,
    sessions: HashMap<u64, Session>,
    next_session: u64,
}

impl AuthRegistry {
    /// Creates an empty registry.
    pub fn new(clock: SimClock) -> AuthRegistry {
        AuthRegistry {
            clock,
            inner: OrderedMutex::new(AuthInner {
                users: HashMap::new(),
                sessions: HashMap::new(),
                next_session: 0x5e55_0000_0000_0001,
            }),
        }
    }

    /// Registers a user with a password stand-in.
    pub fn add_user(&self, user: u32, secret: u64) {
        self.inner
            .lock()
            .users
            .insert(user, UserEntry { secret, groups: Vec::new() });
    }

    /// Adds a user to a group (PasswdEtc group membership).
    pub fn add_group_member(&self, group: u32, user: u32) {
        if let Some(u) = self.inner.lock().users.get_mut(&user) {
            if !u.groups.contains(&group) {
                u.groups.push(group);
            }
        }
    }

    /// Returns the groups a user belongs to.
    pub fn groups_of(&self, user: u32) -> Vec<u32> {
        self.inner.lock().users.get(&user).map(|u| u.groups.clone()).unwrap_or_default()
    }

    /// Authenticates and issues a ticket.
    pub fn login(&self, user: u32, secret: u64) -> DfsResult<Ticket> {
        let mut inner = self.inner.lock();
        match inner.users.get(&user) {
            Some(u) if u.secret == secret => {}
            _ => return Err(DfsError::AuthenticationFailed),
        }
        inner.next_session = inner.next_session.wrapping_mul(6364136223846793005).wrapping_add(1);
        let session = inner.next_session;
        let expires = self.clock.now().plus_micros(TICKET_LIFETIME_US);
        inner.sessions.insert(session, Session { user, expires });
        Ok(Ticket { user, session, expires })
    }

    /// Verifies a ticket, returning the authenticated user.
    ///
    /// Rejects unknown sessions, user mismatches (a stolen session id
    /// presented for another user), and expired tickets.
    pub fn verify(&self, ticket: &Ticket) -> Option<u32> {
        let inner = self.inner.lock();
        let s = inner.sessions.get(&ticket.session)?;
        if s.user != ticket.user || self.clock.now() > s.expires {
            return None;
        }
        Some(s.user)
    }

    /// Invalidates a session (logout).
    pub fn logout(&self, session: u64) {
        self.inner.lock().sessions.remove(&session);
    }
}

/// The KDC front end: serves [`crate::Request::Login`]
/// over the network (§3.7).
pub struct KdcService {
    auth: Arc<AuthRegistry>,
}

use crate::{CallContext, Request, Response, RpcService};
use std::sync::Arc;

impl KdcService {
    /// Wraps the shared registry as an RPC service.
    pub fn new(auth: Arc<AuthRegistry>) -> Arc<KdcService> {
        Arc::new(KdcService { auth })
    }
}

impl RpcService for KdcService {
    fn dispatch(&self, _ctx: CallContext, req: Request) -> Response {
        match req {
            Request::Login { user, secret } => match self.auth.login(user, secret) {
                Ok(t) => Response::TicketGranted(t),
                Err(e) => Response::Err(e),
            },
            _ => Response::Err(DfsError::InvalidArgument),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn login_verify_cycle() {
        let clock = SimClock::new();
        let auth = AuthRegistry::new(clock);
        auth.add_user(10, 999);
        let t = auth.login(10, 999).unwrap();
        assert_eq!(auth.verify(&t), Some(10));
    }

    #[test]
    fn wrong_password_rejected() {
        let auth = AuthRegistry::new(SimClock::new());
        auth.add_user(10, 999);
        assert_eq!(auth.login(10, 1).unwrap_err(), DfsError::AuthenticationFailed);
        assert_eq!(auth.login(11, 999).unwrap_err(), DfsError::AuthenticationFailed);
    }

    #[test]
    fn tickets_expire_with_simulated_time() {
        let clock = SimClock::new();
        let auth = AuthRegistry::new(clock.clone());
        auth.add_user(10, 999);
        let t = auth.login(10, 999).unwrap();
        clock.advance_micros(TICKET_LIFETIME_US + 1);
        assert_eq!(auth.verify(&t), None, "expired ticket must fail");
    }

    #[test]
    fn stolen_session_for_other_user_rejected() {
        let auth = AuthRegistry::new(SimClock::new());
        auth.add_user(10, 999);
        let t = auth.login(10, 999).unwrap();
        let forged = Ticket { user: 11, ..t };
        assert_eq!(auth.verify(&forged), None);
    }

    #[test]
    fn logout_invalidates() {
        let auth = AuthRegistry::new(SimClock::new());
        auth.add_user(10, 999);
        let t = auth.login(10, 999).unwrap();
        auth.logout(t.session);
        assert_eq!(auth.verify(&t), None);
    }

    #[test]
    fn group_membership() {
        let auth = AuthRegistry::new(SimClock::new());
        auth.add_user(10, 1);
        auth.add_group_member(7, 10);
        auth.add_group_member(7, 10);
        auth.add_group_member(8, 10);
        assert_eq!(auth.groups_of(10), vec![7, 8]);
        assert!(auth.groups_of(99).is_empty());
    }

    #[test]
    fn sessions_are_unique() {
        let auth = AuthRegistry::new(SimClock::new());
        auth.add_user(10, 1);
        let a = auth.login(10, 1).unwrap();
        let b = auth.login(10, 1).unwrap();
        assert_ne!(a.session, b.session);
        assert_eq!(auth.verify(&a), Some(10));
        assert_eq!(auth.verify(&b), Some(10));
    }
}
