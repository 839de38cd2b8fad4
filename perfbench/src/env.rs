//! The service under test, started in this process: one `Server`, or a
//! fleet coordinator front door over two worker servers.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use predllc::fleet::{Coordinator, CoordinatorConfig};
use predllc::serve::{Metrics, Server, ServerConfig, ServerHandle};

/// Executor threads of the local server: the box has two cores.
pub const EXECUTOR_THREADS: usize = 2;

/// A running service and the threads serving it.
pub struct Env {
    /// Where clients submit jobs.
    pub front: ServerHandle,
    /// The `threads` label the front door stamps into JSON reports.
    pub threads_label: usize,
    /// Fleet worker addresses (empty for a single server).
    pub workers: Vec<SocketAddr>,
    /// When the front door's tracer epoch began, on this process's
    /// clock: server trace timestamps are nanoseconds after it.
    pub trace_epoch: Instant,
    /// Every server, front door first, with its serving thread.
    servers: Vec<(ServerHandle, JoinHandle<std::io::Result<()>>)>,
}

/// A server's configuration with every thread count set here, so no
/// pool follows the machine's core count: `threads` executor threads,
/// two HTTP dispatch threads and one reactor.
fn config(threads: usize) -> ServerConfig {
    ServerConfig {
        threads,
        dispatchers: EXECUTOR_THREADS,
        reactors: 1,
        ..ServerConfig::default()
    }
}

fn spawn(server: Server) -> (ServerHandle, JoinHandle<std::io::Result<()>>) {
    let handle = server.handle();
    (handle, std::thread::spawn(move || server.run()))
}

impl Env {
    /// Starts a local server, or (`fleet`) two one-thread workers and a
    /// coordinator front door on the default `CoordinatorConfig`.
    pub fn start(fleet: bool) -> std::io::Result<Env> {
        let mut servers = Vec::new();
        let mut workers = Vec::new();
        let threads_label;
        if fleet {
            for _ in 0..2 {
                let worker = Server::bind("127.0.0.1:0", config(1))?;
                workers.push(worker.local_addr());
                servers.push(spawn(worker));
            }
            let metrics = Arc::new(Metrics::default());
            let coordinator = Coordinator::new(
                workers.clone(),
                CoordinatorConfig::default(),
                Arc::clone(&metrics),
            );
            let front = Server::bind_with(
                "127.0.0.1:0",
                config(EXECUTOR_THREADS),
                Arc::new(coordinator),
                metrics,
            )?;
            // A coordinator stamps `1` so reports match any fleet shape.
            threads_label = 1;
            servers.insert(0, spawn(front));
        } else {
            let server = Server::bind("127.0.0.1:0", config(EXECUTOR_THREADS))?;
            threads_label = EXECUTOR_THREADS;
            servers.push(spawn(server));
        }
        let front = servers[0].0.clone();
        let since = Duration::from_nanos(front.tracer().now_ns());
        let trace_epoch = Instant::now()
            .checked_sub(since)
            .unwrap_or_else(Instant::now);
        Ok(Env {
            front,
            threads_label,
            workers,
            trace_epoch,
            servers,
        })
    }

    /// The front door's address.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Shuts every server down (front door first, so it drains before
    /// its workers go) and joins its thread.
    pub fn stop(self) -> Result<(), String> {
        for (handle, thread) in self.servers {
            handle.shutdown();
            thread
                .join()
                .map_err(|_| "a server thread panicked".to_string())?
                .map_err(|e| format!("a server failed: {e}"))?;
        }
        Ok(())
    }
}
