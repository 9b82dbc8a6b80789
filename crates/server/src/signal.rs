//! Process signal wiring for graceful shutdown.
//!
//! `faascached` drains on SIGTERM/SIGINT. The build environment carries
//! no `libc` crate, so on Unix this module declares the two C symbols it
//! needs directly — `std` already links the platform C library. The
//! handler only sets an [`AtomicBool`]; an atomic store is async-signal
//! safe, and every serving loop reads the flag when it next wakes: a
//! handler or a parked accept loop within one read timeout, sooner if
//! the signal interrupts its wait.
//!
//! [`AtomicBool`]: std::sync::atomic::AtomicBool

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATE: AtomicBool = AtomicBool::new(false);

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" fn on_signal(_sig: c_int) {
        TERMINATE.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(c_int) as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn requested() -> bool {
        TERMINATE.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// Installs SIGTERM/SIGINT handlers that request a drain. No-op off Unix.
pub fn install() {
    imp::install()
}

/// Whether a termination signal has been received since [`install`].
pub fn requested() -> bool {
    imp::requested()
}
