//! F2 — regenerate Figure 2: "WebFINDIT Implementation". Prints the
//! deployment map — which ORB hosts which database proxy, which DBMS
//! backs it, and which bridge (JDBC / JNI / C++ method invocation)
//! connects proxy to database — by interrogating the running system:
//! the ISI servants report their own bridge kind over IIOP.

use webfindit::isi;
use webfindit_bench::header;
use webfindit_healthcare::build_healthcare;

fn main() {
    header("Figure 2", "WebFINDIT Implementation");
    let dep = build_healthcare(1999).expect("healthcare deployment");

    println!(
        "\n{:<28} {:<12} {:<12} {:<24} endpoint",
        "database", "DBMS", "ORB", "bridge"
    );
    println!("{}", "-".repeat(100));
    for site_name in dep.fed.site_names() {
        let site = dep.fed.site(&site_name).expect("site");
        // Ask the live ISI servant which bridge it uses (a real GIOP call).
        let ior = &site.isi_ior;
        let bridge = dep
            .fed
            .call(ior, isi::Bridge {})
            .unwrap_or_else(|_| "?".into());
        let product = dep
            .fed
            .call(ior, isi::InterfaceOf {})
            .map(|interface| interface.product)
            .unwrap_or_else(|_| site.product.clone());
        println!(
            "{:<28} {:<12} {:<12} {:<24} {}",
            site.name, product, site.orb_name, bridge, site.url
        );
    }

    println!("\nORB instances (interoperating via IIOP):");
    for orb_name in dep.fed.orb_names() {
        let orb = dep.fed.orb(&orb_name).expect("orb");
        let (host, port) = orb.advertised_endpoint();
        println!(
            "  {:<12} {:<28} byte order: {:?}, {} active servants",
            orb_name,
            format!("{host}:{port}"),
            orb.byte_order(),
            orb.adapter().len()
        );
    }

    println!("\nIIOP traffic so far (metadata wiring):");
    for orb_name in dep.fed.orb_names() {
        let orb = dep.fed.orb(&orb_name).expect("orb");
        let m = orb.metrics().snapshot();
        println!(
            "  {:<12} served {:>4} requests, {:>7} bytes in, {:>7} bytes out",
            orb_name, m.requests_served, m.bytes_received, m.bytes_sent
        );
    }
    dep.fed.shutdown();
}
