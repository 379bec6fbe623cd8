//! The typed interfaces (`webfindit_orb::interface!`) against the
//! `Value` shapes their operations had when servants dispatched on
//! strings and callers built `Value` arguments by hand.
//!
//! * **Per-operation differential** — for every operation of the
//!   co-database, information-source, naming and echo interfaces, random
//!   typed arguments give the request arguments the hand-built calls
//!   sent, the skeleton reads those arguments back into the same typed
//!   values, and random typed results write, in both byte orders, the
//!   bytes of the `Value` the string servants returned (the builders
//!   they used live on here as the oracle) and read back to themselves.
//! * **DII** — `Federation::invoke` by name of each operation returns the
//!   `Value` those builders make from the servant's own state.
//! * **Exceptions** — a missing or mistyped argument is `BAD_PARAM`, an
//!   unknown operation `BAD_OPERATION`, a co-database failure a user
//!   exception.
//! * **Stall gate** — a stalled co-database or ISI holds every one of its
//!   operations, which the chaos goldens rely on.

use std::fmt::Debug;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webfindit::codb;
use webfindit::discovery::{ProbeReply, TopicAnswer};
use webfindit::isi;
use webfindit::orb::naming::{context, NamingService};
use webfindit::orb::servant::{echo, EchoServant, Servant};
use webfindit::orb::{Operation, OrbError};
use webfindit::servants::{CoDatabaseServant, IsiServant, SourceInterface};
use webfindit::synth::{build, SynthConfig, SynthFederation};
use webfindit::value_map::read_result_set;
use webfindit::wire::{ByteOrder, CdrReader, CdrWriter, Ior, Marshal, Rest, Trailing, Value};
use webfindit::{Federation, StallGate, WebfinditError};
use webfindit_base::prop;
use webfindit_base::rng::StdRng;
use webfindit_base::sync::RwLock;
use webfindit_codb::evolution::DissolutionReport;
use webfindit_codb::{
    CoDatabase, ExportedFunction, ExportedType, InformationSource, LinkEnd, ServiceLink,
};
use webfindit_connect::manager::standard_manager;
use webfindit_connect::DataSourceRegistry;
use webfindit_oostore::method::MethodTable;
use webfindit_oostore::model::{ClassDef, OType, OValue, Oid};
use webfindit_oostore::ObjectStore;

// ---- the builders the string servants and callers used ----------------

fn strings_to_value(items: &[String]) -> Value {
    Value::Sequence(items.iter().cloned().map(Value::Str).collect())
}

fn link_to_value(l: &ServiceLink) -> Value {
    let end = |e: &LinkEnd| match e {
        LinkEnd::Coalition(n) => ("coalition", n.clone()),
        LinkEnd::Database(n) => ("database", n.clone()),
    };
    let (fk, fname) = end(&l.from);
    let (tk, tname) = end(&l.to);
    Value::record([
        ("from_kind", Value::string(fk)),
        ("from", Value::Str(fname)),
        ("to_kind", Value::string(tk)),
        ("to", Value::Str(tname)),
        ("description", Value::string(l.description.clone())),
    ])
}

fn links_to_value(links: &[ServiceLink]) -> Value {
    Value::Sequence(links.iter().map(link_to_value).collect())
}

fn descriptor_to_value(d: &InformationSource) -> Value {
    let interface = d.interface.iter().map(exported_type_to_value).collect();
    Value::record([
        ("name", Value::string(&d.name)),
        ("information_type", Value::string(&d.information_type)),
        ("documentation", Value::string(&d.documentation_url)),
        ("location", Value::string(&d.location)),
        ("wrapper", Value::string(&d.wrapper)),
        ("interface", Value::Sequence(interface)),
    ])
}

fn exported_type_to_value(t: &ExportedType) -> Value {
    let attribute = |(ty, name): &(String, String)| {
        Value::record([("type", Value::string(ty)), ("name", Value::string(name))])
    };
    let function = |f: &ExportedFunction| {
        Value::record([
            ("name", Value::string(&f.name)),
            ("returns", Value::string(&f.returns)),
            ("params", strings_to_value(&f.params)),
            ("description", Value::string(&f.description)),
        ])
    };
    Value::record([
        ("name", Value::string(&t.name)),
        ("description", Value::string(&t.description)),
        (
            "attributes",
            Value::Sequence(t.attributes.iter().map(attribute).collect()),
        ),
        (
            "functions",
            Value::Sequence(t.functions.iter().map(function).collect()),
        ),
    ])
}

/// `probe_reply`'s record: the stamp alone, or the stamp and the answer.
fn probe_to_value(reply: &ProbeReply) -> Value {
    let version = ("version", Value::LongLong(reply.version as i64));
    let Some(answer) = &reply.answer else {
        return Value::record([version]);
    };
    Value::record([
        version,
        ("coalitions", strings_to_value(&answer.coalitions)),
        ("links", links_to_value(&answer.links)),
        ("expansion", strings_to_value(&answer.expansion)),
    ])
}

fn dissolution_to_value(r: &DissolutionReport) -> Value {
    Value::record([
        (
            "removed_coalitions",
            strings_to_value(&r.removed_coalitions),
        ),
        ("displaced_sources", strings_to_value(&r.displaced_sources)),
        ("severed_links", Value::ULong(r.severed_links as u32)),
    ])
}

fn interface_to_value(i: &SourceInterface) -> Value {
    Value::record([
        ("product", Value::string(&i.product)),
        ("instance", Value::string(&i.instance)),
        ("tables", strings_to_value(&i.tables)),
        ("classes", strings_to_value(&i.classes)),
    ])
}

/// An object value as a caller passed it to `invoke_function`, and as
/// an object table's cell is written.
fn ovalue_to_value(v: &OValue) -> Value {
    match v {
        OValue::Null => Value::Null,
        OValue::Int(i) => Value::LongLong(*i),
        OValue::Double(d) => Value::Double(*d),
        OValue::Text(s) => Value::string(s),
        OValue::Bool(b) => Value::Bool(*b),
        OValue::List(items) => Value::Sequence(items.iter().map(ovalue_to_value).collect()),
        OValue::Ref(oid) => Value::record([("oid", Value::ULong(oid.0 as u32))]),
    }
}

// ---- random typed values ------------------------------------------------

const ALPHABET: &str = "abcxyz _-./:é0123";

fn text(rng: &mut StdRng) -> String {
    prop::string_of(rng, ALPHABET, 0..9)
}

fn texts(rng: &mut StdRng) -> Vec<String> {
    prop::vec_of(rng, 0..4, text)
}

fn link(rng: &mut StdRng) -> ServiceLink {
    let end = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            LinkEnd::Coalition(text(rng))
        } else {
            LinkEnd::Database(text(rng))
        }
    };
    ServiceLink {
        from: end(rng),
        to: end(rng),
        description: text(rng),
    }
}

fn descriptor(rng: &mut StdRng) -> InformationSource {
    let function = |rng: &mut StdRng| ExportedFunction {
        name: text(rng),
        params: texts(rng),
        returns: text(rng),
        description: text(rng),
    };
    let exported = |rng: &mut StdRng| ExportedType {
        name: text(rng),
        attributes: prop::vec_of(rng, 0..3, |rng| (text(rng), text(rng))),
        functions: prop::vec_of(rng, 0..3, function),
        description: text(rng),
    };
    InformationSource {
        name: text(rng),
        information_type: text(rng),
        documentation_url: text(rng),
        location: text(rng),
        wrapper: text(rng),
        interface: prop::vec_of(rng, 0..3, exported),
    }
}

fn ovalue(rng: &mut StdRng, depth: usize) -> OValue {
    match rng.gen_range(0..if depth < 2 { 7 } else { 6 }) {
        0 => OValue::Null,
        1 => OValue::Int(rng.next_u64() as i64),
        2 => OValue::Double(rng.gen_range(-1e6..1e6)),
        3 => OValue::Text(text(rng)),
        4 => OValue::Bool(rng.gen_bool(0.5)),
        5 => OValue::Ref(Oid(rng.gen_range(0..u32::MAX as u64))),
        _ => OValue::List(prop::vec_of(rng, 0..3, |rng| ovalue(rng, depth + 1))),
    }
}

fn any_value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::Long(rng.next_u64() as i32),
        2 => Value::string(text(rng)),
        3 => Value::Bool(rng.gen_bool(0.5)),
        4 => Value::Sequence(vec![Value::ULong(rng.next_u64() as u32)]),
        _ => Value::record([("k", Value::string(text(rng)))]),
    }
}

fn ior(rng: &mut StdRng) -> Ior {
    let key = text(rng).into_bytes();
    Ior::new_iiop("IDL:webfindit/Echo:1.0", "h.example", 9000, key)
}

// ---- the checks ---------------------------------------------------------

const ORDERS: [ByteOrder; 2] = [ByteOrder::BigEndian, ByteOrder::LittleEndian];

fn encoded(values: &[Value], order: ByteOrder) -> Vec<u8> {
    let mut w = CdrWriter::new(order);
    values.iter().for_each(|v| v.encode(&mut w).unwrap());
    w.into_bytes()
}

/// `op` is the operation `name` and sends exactly `reference`.
fn sends<O: Operation>(op: &O, name: &str, reference: &[Value]) {
    assert_eq!(O::NAME, name);
    let args = op.args().unwrap();
    for order in ORDERS {
        assert_eq!(encoded(&args, order), encoded(reference, order), "{name}");
    }
}

/// The skeleton reads argument `at` of the reference arguments back as
/// `value`.
fn reads_arg<T: Marshal + PartialEq + Debug>(reference: &[Value], at: usize, value: &T) {
    assert_eq!(T::from_args(reference, at).as_ref(), Some(value));
}

/// `value` writes the bytes of `reference` and reads back to itself.
fn answers<T: Marshal + PartialEq + Debug>(value: &T, reference: &Value) {
    for order in ORDERS {
        let mut w = CdrWriter::new(order);
        value.write(&mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes, encoded(std::slice::from_ref(reference), order));
        let mut r = CdrReader::new(&bytes, order);
        assert_eq!(&T::read(&mut r).unwrap(), value);
        assert!(r.is_exhausted());
    }
}

/// The decoder of a written reply these checks never read.
type NoRead = fn(&mut CdrReader<'_>) -> Result<(), OrbError>;

fn no_read(_: &mut CdrReader<'_>) -> Result<(), OrbError> {
    Ok(())
}

#[test]
fn every_operation_writes_its_old_value_shape() {
    prop::cases(200, |rng| {
        let (a, b, c) = (text(rng), text(rng), text(rng));
        let s = |t: &String| Value::string(t.clone());

        // CoDatabase.
        sends(&codb::Owner {}, "owner", &[]);
        answers(&a, &s(&a));
        sends(&codb::Version {}, "version", &[]);
        let version = rng.next_u64() as i64;
        answers(&version, &Value::LongLong(version));

        let known = rng.gen_bool(0.5).then(|| rng.next_u64() as i64);
        let probe = codb::Probe {
            topic: a.clone(),
            known,
        };
        let reference = [s(&a), known.map_or(Value::Null, Value::LongLong)];
        sends(&probe, "probe", &reference);
        reads_arg(&reference, 1, &known);
        let answer = TopicAnswer {
            coalitions: texts(rng),
            links: prop::vec_of(rng, 0..3, link),
            expansion: texts(rng),
        };
        let reply = ProbeReply {
            version: rng.next_u64() >> 1,
            answer: rng.gen_bool(0.5).then_some(answer),
        };
        answers(&reply, &probe_to_value(&reply));

        let names = texts(rng);
        let links = prop::vec_of(rng, 0..3, link);
        let topic = || a.clone();
        sends(
            &codb::FindCoalitions { topic: topic() },
            "find_coalitions",
            &[s(&a)],
        );
        sends(&codb::FindLinks { topic: topic() }, "find_links", &[s(&a)]);
        sends(&codb::Subclasses { class: topic() }, "subclasses", &[s(&a)]);
        let documentation = codb::CoalitionDocumentation { class: topic() };
        sends(&documentation, "coalition_documentation", &[s(&a)]);
        sends(&codb::Members { coalition: topic() }, "members", &[s(&a)]);
        sends(
            &codb::Memberships { source: topic() },
            "memberships",
            &[s(&a)],
        );
        sends(&codb::Sources {}, "sources", &[]);
        sends(
            &codb::Descriptor { source: topic() },
            "descriptor",
            &[s(&a)],
        );
        sends(&codb::ServiceLinks {}, "service_links", &[]);
        reads_arg(&[s(&a)], 0, &a);
        answers(&names, &strings_to_value(&names));
        answers(&links, &links_to_value(&links));
        let d = descriptor(rng);
        answers(&d, &descriptor_to_value(&d));

        let parent = rng.gen_bool(0.5).then(|| b.clone());
        let create = codb::CreateCoalition {
            name: a.clone(),
            parent: parent.clone(),
            documentation: c.clone(),
        };
        let reference = [s(&a), parent.as_ref().map_or(Value::Null, s), s(&c)];
        sends(&create, "create_coalition", &reference);
        reads_arg(&reference, 1, &parent);
        answers(&(), &Value::Void);
        sends(
            &codb::DissolveCoalition { name: topic() },
            "dissolve_coalition",
            &[s(&a)],
        );
        let report = DissolutionReport {
            removed_coalitions: texts(rng),
            displaced_sources: texts(rng),
            severed_links: rng.gen_range(0..u32::MAX as u64) as usize,
        };
        answers(&report, &dissolution_to_value(&report));
        let advertise = codb::Advertise {
            coalition: a.clone(),
            descriptor: d.clone(),
        };
        let reference = [s(&a), descriptor_to_value(&d)];
        sends(&advertise, "advertise", &reference);
        reads_arg(&reference, 1, &d);
        let withdraw = codb::Withdraw {
            coalition: a.clone(),
            source: b.clone(),
        };
        sends(&withdraw, "withdraw", &[s(&a), s(&b)]);
        let l = link(rng);
        let reference = [link_to_value(&l)];
        sends(&codb::AddLink { link: l.clone() }, "add_link", &reference);
        reads_arg(&reference, 0, &l);

        // InformationSource.
        sends(&isi::InterfaceOf {}, "interface_of", &[]);
        let interface = SourceInterface {
            product: text(rng),
            instance: text(rng),
            tables: texts(rng),
            classes: texts(rng),
        };
        answers(&interface, &interface_to_value(&interface));
        sends(&isi::Bridge {}, "bridge", &[]);
        let max_rows = rng.gen_bool(0.5).then(|| rng.next_u64() as u32);
        let execute = isi::Execute {
            text: a.clone(),
            max_rows: Trailing(max_rows),
            read: no_read,
        };
        let mut reference = vec![s(&a)];
        reference.extend(max_rows.map(Value::ULong));
        sends(&execute, "execute", &reference);
        reads_arg(&reference, 1, &Trailing(max_rows));
        let arguments = prop::vec_of(rng, 0..4, |rng| ovalue(rng, 0));
        let invoke = isi::InvokeFunction {
            method: a.clone(),
            arguments: Rest(arguments.clone()),
            read: no_read,
        };
        let mut reference = vec![s(&a)];
        reference.extend(arguments.iter().map(ovalue_to_value));
        sends(&invoke, "invoke_function", &reference);
        reads_arg(&reference, 1, &Rest(arguments.clone()));
        for v in &arguments {
            answers(v, &ovalue_to_value(v));
        }
        sends(&isi::Begin { read: no_read }, "begin", &[]);
        sends(&isi::Commit { read: no_read }, "commit", &[]);
        sends(&isi::Rollback { read: no_read }, "rollback", &[]);

        // Naming.
        let target = ior(rng);
        let bind = context::Bind {
            name: a.clone(),
            ior: target.clone(),
        };
        let reference = [s(&a), Value::string(target.to_stringified())];
        sends(&bind, "bind", &reference);
        reads_arg(&reference, 1, &target);
        sends(&context::Resolve { name: topic() }, "resolve", &[s(&a)]);
        answers(&target, &Value::string(target.to_stringified()));
        sends(&context::Unbind { name: topic() }, "unbind", &[s(&a)]);
        sends(&context::List {}, "list", &[]);

        // Echo.
        let values = prop::vec_of(rng, 0..4, any_value);
        let echoed = echo::Echo {
            values: Rest(values.clone()),
        };
        sends(&echoed, "echo", &values);
        reads_arg(&values, 0, &Rest(values.clone()));
        answers(&values, &Value::Sequence(values.clone()));
        sends(&echo::Ping {}, "ping", &[]);
        sends(&echo::FailUser {}, "fail_user", &[]);
        sends(&echo::FailSystem {}, "fail_system", &[]);
    });
}

// ---- by name, over the wire ---------------------------------------------

/// A small synthetic federation plus one object site whose `Treatment`
/// class counts its instances.
fn federation() -> SynthFederation {
    let synth = build(&SynthConfig {
        databases: 6,
        coalition_size: 3,
        orbs: 2,
        extra_links: 0,
        ring_links: true,
        seed: 5,
    })
    .unwrap();
    let mut store = ObjectStore::new("Clinic");
    store
        .define_class(ClassDef::root("Treatment").attr("name", OType::Text))
        .unwrap();
    let dialysis = [("name".to_string(), OValue::from("dialysis"))];
    store.create("Treatment", dialysis).unwrap();
    let mut methods = MethodTable::new();
    methods.register("Treatment", "count_all", |s, _, args| {
        let n = s.instances_of("Treatment", true).unwrap().len();
        Ok(OValue::Int(n as i64 + args.len() as i64))
    });
    let spec = webfindit::SiteSpec {
        name: "Clinic".into(),
        orb: synth.fed.orb_names()[0].clone(),
        vendor: webfindit::federation::SiteVendor::ObjectStore,
        host: "clinic.synth.net".into(),
        information_type: "treatments".into(),
        documentation_url: "http://docs.synth.net/Clinic".into(),
        interface: Vec::new(),
    };
    synth.fed.add_object_site(spec, store, methods).unwrap();
    synth
}

fn system_exception(result: Result<Value, WebfinditError>, kind: &str) {
    match result {
        Err(WebfinditError::Orb(OrbError::RemoteException {
            system: true,
            description,
        })) => assert!(description.starts_with(kind), "{description}"),
        other => panic!("expected {kind}, got {other:?}"),
    }
}

fn user_exception(result: Result<Value, WebfinditError>) {
    assert!(
        matches!(
            result,
            Err(WebfinditError::Orb(OrbError::RemoteException {
                system: false,
                ..
            }))
        ),
        "{result:?}"
    );
}

#[test]
fn dii_by_name_answers_what_the_value_servants_did() {
    let synth = federation();
    let fed: &Federation = &synth.fed;
    let site = fed.site(&synth.sites[0]).unwrap();
    let ior = &site.codb_ior;
    // The servant's own state, read under a guard that never spans a call.
    let local = |f: &dyn Fn(&CoDatabase) -> Value| f(&site.codb.read());
    let invoke = |name: &str, args: &[Value]| fed.invoke(ior, name, args).unwrap();
    let s = |t: &str| Value::string(t);
    let coalition = &synth.coalitions[0].0;
    let member = &synth.coalitions[0].2[0];

    assert_eq!(invoke("owner", &[]), local(&|c| s(c.owner())));
    let version = local(&|c| Value::LongLong(c.version() as i64));
    assert_eq!(invoke("version", &[]), version);
    for topic in [
        &synth.coalitions[0].1,
        &synth.coalitions[1].1,
        "nothing at all",
    ] {
        let probed = invoke("probe", &[s(topic), Value::Null]);
        let typed = codb::Probe {
            topic: topic.to_string(),
            known: None,
        };
        let reply = fed.call(ior, typed).unwrap();
        assert_eq!(probed, probe_to_value(&reply));
        let coalitions = local(&|c| strings_to_value(&c.find_coalitions(topic)));
        let links = local(&|c| {
            let links: Vec<ServiceLink> = c.find_links(topic).into_iter().cloned().collect();
            links_to_value(&links)
        });
        assert_eq!(probed.field("coalitions"), Some(&coalitions));
        assert_eq!(probed.field("links"), Some(&links));
        let stamp = invoke("probe", &[s(topic), version.clone()]);
        assert_eq!(stamp, Value::record([("version", version.clone())]));
        assert_eq!(invoke("find_coalitions", &[s(topic)]), coalitions);
        assert_eq!(invoke("find_links", &[s(topic)]), links);
    }
    assert_eq!(
        invoke("subclasses", &[s(coalition)]),
        local(&|c| strings_to_value(&c.subclasses(coalition).unwrap()))
    );
    assert_eq!(
        invoke("coalition_documentation", &[s(coalition)]),
        local(&|c| s(&c.coalition_documentation(coalition).unwrap()))
    );
    assert_eq!(
        invoke("members", &[s(coalition)]),
        local(&|c| strings_to_value(&c.members(coalition).unwrap()))
    );
    assert_eq!(
        invoke("memberships", &[s(member)]),
        local(&|c| strings_to_value(&c.memberships(member)))
    );
    assert_eq!(
        invoke("sources", &[]),
        local(&|c| strings_to_value(&c.sources()))
    );
    assert_eq!(
        invoke("descriptor", &[s(member)]),
        local(&|c| descriptor_to_value(c.descriptor(member).unwrap()))
    );
    assert_eq!(
        invoke("service_links", &[]),
        local(&|c| links_to_value(c.service_links()))
    );

    // Management, then its effect.
    let create = [s("Scratch"), Value::Null, s("scratch space")];
    assert_eq!(invoke("create_coalition", &create), Value::Void);
    let d = descriptor_to_value(&site.descriptor);
    assert_eq!(invoke("advertise", &[s("Scratch"), d]), Value::Void);
    assert_eq!(
        invoke("members", &[s("Scratch")]),
        strings_to_value(std::slice::from_ref(&site.name))
    );
    assert_eq!(
        invoke("withdraw", &[s("Scratch"), s(&site.name)]),
        Value::Void
    );
    let link = ServiceLink {
        from: LinkEnd::Coalition("Scratch".into()),
        to: LinkEnd::Database(member.clone()),
        description: "scratch link".into(),
    };
    assert_eq!(invoke("add_link", &[link_to_value(&link)]), Value::Void);
    let report = DissolutionReport {
        removed_coalitions: vec!["Scratch".into()],
        displaced_sources: Vec::new(),
        severed_links: 1,
    };
    assert_eq!(
        invoke("dissolve_coalition", &[s("Scratch")]),
        dissolution_to_value(&report)
    );

    // The information source, relational and object.
    let isi = |name: &str, args: &[Value]| fed.invoke(&site.isi_ior, name, args).unwrap();
    assert_eq!(isi("bridge", &[]), s("JDBC"));
    let md = fed
        .manager()
        .get_connection(&site.url)
        .unwrap()
        .metadata()
        .unwrap();
    let interface = SourceInterface {
        product: md.product,
        instance: md.instance,
        tables: md.tables.iter().map(|t| t.to_create_sql()).collect(),
        classes: md.classes,
    };
    assert_eq!(isi("interface_of", &[]), interface_to_value(&interface));
    let sql = "SELECT id, payload FROM records ORDER BY id";
    let execute = isi::Execute {
        text: sql.to_owned(),
        max_rows: Trailing(None),
        read: read_result_set,
    };
    let table = fed.call(&site.isi_ior, execute).unwrap();
    let rows = isi("execute", &[s(sql)]);
    assert_eq!(
        rows.field("rows")
            .and_then(Value::as_sequence)
            .unwrap()
            .len(),
        4
    );
    let mut w = CdrWriter::new(ByteOrder::BigEndian);
    webfindit::value_map::write_result_set(&table, &mut w).unwrap();
    let bytes = w.into_bytes();
    let collected = Value::decode(&mut CdrReader::new(&bytes, ByteOrder::BigEndian)).unwrap();
    assert_eq!(rows, collected);
    let capped = isi("execute", &[s(sql), Value::ULong(1)]);
    assert_eq!(
        capped
            .field("rows")
            .and_then(Value::as_sequence)
            .unwrap()
            .len(),
        1
    );
    for verb in ["begin", "commit", "begin", "rollback"] {
        assert_eq!(isi(verb, &[]), Value::Void);
    }
    let clinic = fed.site("Clinic").unwrap();
    let method = s("Treatment.count_all");
    let counted = fed.invoke(
        &clinic.isi_ior,
        "invoke_function",
        std::slice::from_ref(&method),
    );
    assert_eq!(counted.unwrap(), Value::LongLong(1));
    let with_args = [method, Value::LongLong(7), Value::string("x")];
    let counted = fed.invoke(&clinic.isi_ior, "invoke_function", &with_args);
    assert_eq!(counted.unwrap(), Value::LongLong(3));

    // Naming and echo, served from one of the federation's ORBs.
    let orb = fed.orb(&site.orb_name).unwrap();
    let naming = orb.activate("naming/typed-ops", NamingService::new());
    let echo_ior = orb.activate("echo/typed-ops", Arc::new(EchoServant));
    let ns = |name: &str, args: &[Value]| fed.invoke(&naming, name, args);
    let stringified = s(&echo_ior.to_stringified());
    assert_eq!(
        ns("bind", &[s("e"), stringified.clone()]).unwrap(),
        Value::Void
    );
    assert_eq!(ns("resolve", &[s("e")]).unwrap(), stringified);
    assert_eq!(
        ns("list", &[]).unwrap(),
        strings_to_value(&["e".to_string()])
    );
    assert_eq!(ns("unbind", &[s("e")]).unwrap(), Value::Void);
    user_exception(ns("resolve", &[s("e")]));
    let echo = |name: &str, args: &[Value]| fed.invoke(&echo_ior, name, args);
    let values = [Value::Long(1), s("x"), Value::Null];
    assert_eq!(
        echo("echo", &values).unwrap(),
        Value::Sequence(values.to_vec())
    );
    assert_eq!(echo("ping", &[]).unwrap(), s("pong"));
    user_exception(echo("fail_user", &[]));
    system_exception(echo("fail_system", &[]), "PERSIST_STORE");
    synth.fed.shutdown();
}

#[test]
fn bad_arguments_and_unknown_operations_keep_their_exceptions() {
    let synth = federation();
    let fed = &synth.fed;
    let site = fed.site(&synth.sites[0]).unwrap();
    let with_args = [
        (&site.codb_ior, codb::Probe::NAME, 2),
        (&site.codb_ior, codb::FindCoalitions::NAME, 1),
        (&site.codb_ior, codb::FindLinks::NAME, 1),
        (&site.codb_ior, codb::Subclasses::NAME, 1),
        (&site.codb_ior, codb::CoalitionDocumentation::NAME, 1),
        (&site.codb_ior, codb::Members::NAME, 1),
        (&site.codb_ior, codb::Memberships::NAME, 1),
        (&site.codb_ior, codb::Descriptor::NAME, 1),
        (&site.codb_ior, codb::CreateCoalition::NAME, 3),
        (&site.codb_ior, codb::DissolveCoalition::NAME, 1),
        (&site.codb_ior, codb::Advertise::NAME, 2),
        (&site.codb_ior, codb::Withdraw::NAME, 2),
        (&site.codb_ior, codb::AddLink::NAME, 1),
        (&site.isi_ior, <isi::Execute<NoRead>>::NAME, 1),
        (&site.isi_ior, <isi::InvokeFunction<NoRead>>::NAME, 1),
    ];
    for (ior, name, arity) in with_args {
        system_exception(fed.invoke(ior, name, &[]), "BAD_PARAM");
        let mistyped = vec![Value::Bool(true); arity];
        system_exception(fed.invoke(ior, name, &mistyped), "BAD_PARAM");
    }
    // The last argument of a create is its documentation: required.
    let two = [Value::string("x"), Value::Null];
    let name = codb::CreateCoalition::NAME;
    system_exception(fed.invoke(&site.codb_ior, name, &two), "BAD_PARAM");
    // A row cap must be an unsigned long.
    let capped = [Value::string("SELECT id FROM records"), Value::Long(1)];
    system_exception(fed.invoke(&site.isi_ior, "execute", &capped), "BAD_PARAM");

    for ior in [&site.codb_ior, &site.isi_ior] {
        system_exception(fed.invoke(ior, "nonsense", &[]), "BAD_OPERATION");
    }
    // Co-database failures stay user exceptions, typed or not.
    user_exception(fed.invoke(&site.codb_ior, "members", &[Value::string("Ghost")]));
    let ghost = codb::Members {
        coalition: "Ghost".into(),
    };
    assert!(matches!(
        fed.call(&site.codb_ior, ghost),
        Err(WebfinditError::Orb(OrbError::RemoteException {
            system: false,
            ..
        }))
    ));
    synth.fed.shutdown();
}

#[test]
fn the_stall_gate_holds_every_codb_and_isi_operation() {
    const HOLD: Duration = Duration::from_millis(15);
    let gate = StallGate::new();
    let codb = Arc::new(RwLock::new(CoDatabase::new("RBH")));
    let codb = CoDatabaseServant::with_gate(codb, gate.clone());
    let registry = DataSourceRegistry::new();
    let manager = Arc::new(standard_manager(registry));
    let isi = IsiServant::new(manager, "jdbc:oracle://h/RBH").with_gate(gate.clone());
    gate.stall(HOLD.as_millis() as u64);
    let held = |servant: &dyn Servant, name: &str| {
        let start = Instant::now();
        let _ = servant.invoke(name, &[]);
        assert!(start.elapsed() >= HOLD, "{name} was not held");
    };
    for name in [
        codb::Owner::NAME,
        codb::Version::NAME,
        codb::Probe::NAME,
        codb::FindCoalitions::NAME,
        codb::FindLinks::NAME,
        codb::Subclasses::NAME,
        codb::CoalitionDocumentation::NAME,
        codb::Members::NAME,
        codb::Memberships::NAME,
        codb::Sources::NAME,
        codb::Descriptor::NAME,
        codb::ServiceLinks::NAME,
        codb::CreateCoalition::NAME,
        codb::DissolveCoalition::NAME,
        codb::Advertise::NAME,
        codb::Withdraw::NAME,
        codb::AddLink::NAME,
    ] {
        held(&codb, name);
    }
    for name in [
        isi::InterfaceOf::NAME,
        isi::Bridge::NAME,
        <isi::Execute<NoRead>>::NAME,
        <isi::InvokeFunction<NoRead>>::NAME,
        <isi::Begin<NoRead>>::NAME,
        <isi::Commit<NoRead>>::NAME,
        <isi::Rollback<NoRead>>::NAME,
    ] {
        held(&isi, name);
    }
    gate.clear();
    let start = Instant::now();
    let _ = codb.invoke(codb::Owner::NAME, &[]);
    assert!(start.elapsed() < HOLD, "a cleared gate holds nothing");
}
