//! Daemon front ends: stdio (one session) and Unix socket (many).
//!
//! Both front ends speak the same [`crate::session`] loop over the same
//! [`Service`]; the transport is the only difference.  Stdio serves exactly
//! one session (the pipe *is* the client) and drains the service when it
//! ends.  The Unix listener blocks in `accept` until any session's client
//! sends `shutdown` (that session wakes it), then stops accepting, waits
//! for the remaining sessions to end, drains the service and removes the
//! socket file.

use std::io::{self, BufReader, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use ccs_runtime::fault::{self, FaultKind};

use crate::service::{Service, ServiceConfig};
use crate::session;

/// A running sweep daemon: the service plus its front ends.
pub struct Server {
    service: Arc<Service>,
}

impl Server {
    /// Start the daemon core with the given configuration.
    pub fn start(config: ServiceConfig) -> io::Result<Server> {
        Ok(Server {
            service: Arc::new(Service::start(config)?),
        })
    }

    /// The underlying service (for in-process clients and tests).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Serve one session over an arbitrary stream pair; returns whether the
    /// client requested daemon shutdown.  Used by the socket front end, the
    /// e2e tests (over socketpairs) and embedders.
    pub fn serve_stream(
        &self,
        reader: impl io::BufRead,
        writer: impl io::Write + Send + 'static,
    ) -> bool {
        session::run(&self.service, reader, writer)
    }

    /// Serve exactly one session over stdin/stdout, then drain the service.
    ///
    /// This is the pipe-friendly mode: frames in on stdin, frames out on
    /// stdout; EOF on stdin drains outstanding requests before returning.
    pub fn serve_stdio(&self) {
        let stdin = io::stdin();
        let stdout = io::stdout();
        self.serve_stream(stdin.lock(), stdout);
        self.service.drain();
    }

    /// Bind `path` and serve sessions until a client sends `shutdown`; then
    /// stop accepting, wait for the remaining sessions, drain the service
    /// and remove the socket file.
    pub fn serve_unix(&self, path: &Path) -> io::Result<()> {
        // A stale socket file from a previous daemon would fail the bind.
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;

        // `accept` blocks; the session that reads `shutdown` sets the flag
        // and then wakes the loop with one throwaway connection of its own
        // (accept(2) has no portable cancellation).
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut sessions: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _addr) = listener.accept()?;
            if shutdown.load(Ordering::Acquire) {
                break;
            }
            let service = Arc::clone(&self.service);
            let shutdown = Arc::clone(&shutdown);
            let path = path.to_path_buf();
            sessions.push(thread::spawn(move || {
                if let Ok(true) = serve_unix_stream(&service, stream) {
                    shutdown.store(true, Ordering::Release);
                    let _ = UnixStream::connect(&path);
                }
            }));
            sessions.retain(|handle| !handle.is_finished());
        }
        drop(listener);
        for handle in sessions {
            let _ = handle.join();
        }
        self.service.drain();
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

fn serve_unix_stream(service: &Service, stream: UnixStream) -> io::Result<bool> {
    let writer = FaultableStream(stream.try_clone()?);
    Ok(session::run(service, BufReader::new(stream), writer))
}

/// A socket writer whose `close-session` fault hook (a no-op without an
/// installed plan) tears the *whole* connection down, both directions, so
/// the peer sees an abrupt EOF mid-stream.  The teardown must happen at
/// the socket layer: the session's reader holds a duplicate of this fd,
/// so merely dropping the writer would close nothing.
struct FaultableStream(UnixStream);

impl Write for FaultableStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if fault::should_inject(FaultKind::SessionClose) {
            let _ = self.0.shutdown(Shutdown::Both);
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected fault: close-session",
            ));
        }
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}
