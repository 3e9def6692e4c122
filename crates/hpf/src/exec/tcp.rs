//! Availability probe for the socket carrier ([`super::Backend::Tcp`]).

/// Can the `tcp` backend run here? True when the sandbox lets us bind a
/// loopback TCP or Unix-domain socket (honors `FGDSM_NET`). Callers that
/// get `false` should skip with a notice rather than fail.
pub fn tcp_available() -> bool {
    fgdsm_net::available_kind().is_some()
}
