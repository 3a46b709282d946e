//! Post-mortem trace dumps: stash the latest flight-recorder text dump
//! and print it from a panic hook, so an assertion failure deep inside a
//! bench or load run leaves the last N events on stderr.
//!
//! Usage: call [`install`] once at bin startup, then [`stash`] a fresh
//! [`crate::export::text_dump`] at convenient checkpoints. On panic the
//! hook prints the stashed dump after the normal panic report.

use std::sync::{Mutex, Once};

static SLOT: Mutex<Option<String>> = Mutex::new(None);
static INSTALL: Once = Once::new();

/// Replace the stashed dump with a fresh one.
pub fn stash(dump: String) {
    *SLOT.lock().unwrap() = Some(dump);
}

/// Chain a panic hook that prints the stashed dump after the default
/// report. Safe to call more than once; only the first call installs.
pub fn install() {
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            // Avoid deadlocking if the panic happened under the slot lock.
            if let Ok(slot) = SLOT.try_lock() {
                if let Some(dump) = slot.as_ref() {
                    eprintln!("---- simtrace post-mortem (last stashed dump) ----");
                    eprint!("{dump}");
                    eprintln!("---- end simtrace post-mortem ----");
                }
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stash_take_roundtrip() {
        stash("dump A\n".into());
        stash("dump B\n".into());
        assert_eq!(SLOT.lock().unwrap().take().as_deref(), Some("dump B\n"));
    }
}
