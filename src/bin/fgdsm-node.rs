//! The `tcp` backend's worker process: one per node, spawned by
//! `SocketTransport` with everything it needs on its command line
//! (`<node> <addr> <recv-timeout-ms> <metrics 0|1> [<fault>]`). Connects
//! back to the coordinator and runs the node runtime
//! (`fgdsm_protocol::node::serve`, the loop the `chan` backend's worker
//! threads run) over that socket until `Bye`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = fgdsm_net::serve_from_args(&argv) {
        let id = argv.first().map_or("?", String::as_str);
        eprintln!("fgdsm-node {id}: {e}");
        std::process::exit(1);
    }
}
