//! Fixture: a servant that dispatches in `invoke_into`, writing its
//! results straight into the reply; `invoke` only reads them back.

const IFACE: &str = "IDL:fixture/Table:1.0";

pub struct TableServant;

impl Servant for TableServant {
    fn interface_id(&self) -> &str {
        IFACE
    }

    fn invoke(&self, operation: &str, args: &[Value]) -> InvokeResult {
        let mut out = CdrWriter::new(ByteOrder::BigEndian);
        self.invoke_into(operation, args, &mut out)?;
        read_back(out)
    }

    fn invoke_into(&self, operation: &str, args: &[Value], out: &mut CdrWriter) -> Result<(), ServantError> {
        match operation {
            "rows" => write_rows(args, out),
            "count" | "stale_arm" => write_count(args, out),
            other => fail(other),
        }
    }

    fn operations(&self) -> Vec<String> {
        ["rows", "count", "stale_arm", "ghost_op"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }
}
