//! Workspace-local stand-in for the `crossbeam` crate.
//!
//! Kept only for the benchmark (`bench/`), which still imports it; the
//! workspace crates use `std::sync::mpsc` directly.
//!
//! Only `crossbeam::channel`'s unbounded MPSC surface is used by the
//! workspace (one receiver per node thread), which `std::sync::mpsc`
//! covers exactly, so the shim re-exports it under crossbeam's names.

/// MPSC channels with crossbeam's naming.
pub mod channel {
    pub use std::sync::mpsc::{RecvTimeoutError, SendError, TryRecvError};
    use std::time::Duration;

    /// Sending half (clonable).
    pub struct Sender<T>(std::sync::mpsc::Sender<T>);

    /// Receiving half.
    pub struct Receiver<T>(std::sync::mpsc::Receiver<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Sends a message; errors if the receiver is gone.
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            self.0.send(t)
        }
    }

    impl<T> Receiver<T> {
        /// Receives, waiting up to `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv()
        }
    }

    /// An unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Sender(tx), Receiver(rx))
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn send_receive_across_threads() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        std::thread::spawn(move || tx2.send(42).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 42);
        drop(tx);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        ));
    }
}
