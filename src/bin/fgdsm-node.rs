//! The `tcp` backend's worker process: one per node, spawned by
//! `SocketTransport` with everything it needs on its command line
//! (`<node> <addr> <recv-timeout-ms> <metrics 0|1> [<fault>]`). Connects
//! back to the coordinator, introduces itself, and serves wire batches
//! against its shard mirror until `Bye`. See `fgdsm_net::serve_from_args`
//! for the protocol.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = fgdsm_net::serve_from_args(&argv) {
        let id = argv.first().map_or("?", String::as_str);
        eprintln!("fgdsm-node {id}: {e}");
        std::process::exit(1);
    }
}
