//! How the co-database's types cross a typed CORBA interface.
//!
//! Each writes the bytes `Value::encode` writes for its record:
//! a descriptor is `{name, information_type, documentation, location,
//! wrapper, interface: [type]}`, an exported type `{name, description,
//! attributes: [{type, name}], functions: [{name, returns, params,
//! description}]}`, a service link `{from_kind, from, to_kind, to,
//! description}` with kind `"coalition"` or `"database"`, and a
//! dissolution report `{removed_coalitions, displaced_sources,
//! severed_links: ULong}`.

use crate::descriptor::{ExportedFunction, ExportedType, InformationSource};
use crate::evolution::DissolutionReport;
use crate::metadata::{LinkEnd, ServiceLink};
use webfindit_wire::marshal::{read_field, read_record_of, write_field, write_record};
use webfindit_wire::{CdrReader, CdrWriter, Marshal, WireError, WireResult};

impl Marshal for InformationSource {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        write_record(w, 6);
        write_field(w, "name", &self.name)?;
        write_field(w, "information_type", &self.information_type)?;
        write_field(w, "documentation", &self.documentation_url)?;
        write_field(w, "location", &self.location)?;
        write_field(w, "wrapper", &self.wrapper)?;
        write_field(w, "interface", &self.interface)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<InformationSource> {
        read_record_of(r, 6, "descriptor")?;
        Ok(InformationSource {
            name: read_field(r, "name")?,
            information_type: read_field(r, "information_type")?,
            documentation_url: read_field(r, "documentation")?,
            location: read_field(r, "location")?,
            wrapper: read_field(r, "wrapper")?,
            interface: read_field(r, "interface")?,
        })
    }
}

impl Marshal for ExportedType {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        write_record(w, 4);
        write_field(w, "name", &self.name)?;
        write_field(w, "description", &self.description)?;
        w.write_string("attributes")?;
        let attributes: Vec<Attribute> = self.attributes.iter().map(Attribute::of).collect();
        attributes.write(w)?;
        write_field(w, "functions", &self.functions)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<ExportedType> {
        read_record_of(r, 4, "exported type")?;
        Ok(ExportedType {
            name: read_field(r, "name")?,
            description: read_field(r, "description")?,
            attributes: read_field::<Vec<Attribute>>(r, "attributes")?
                .into_iter()
                .map(|a| (a.ty, a.name))
                .collect(),
            functions: read_field(r, "functions")?,
        })
    }
}

/// An exported attribute, `(type, name)`, as its record.
struct Attribute {
    ty: String,
    name: String,
}

impl Attribute {
    fn of((ty, name): &(String, String)) -> Attribute {
        Attribute {
            ty: ty.clone(),
            name: name.clone(),
        }
    }
}

impl Marshal for Attribute {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        write_record(w, 2);
        write_field(w, "type", &self.ty)?;
        write_field(w, "name", &self.name)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<Attribute> {
        read_record_of(r, 2, "attribute")?;
        Ok(Attribute {
            ty: read_field(r, "type")?,
            name: read_field(r, "name")?,
        })
    }
}

impl Marshal for ExportedFunction {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        write_record(w, 4);
        write_field(w, "name", &self.name)?;
        write_field(w, "returns", &self.returns)?;
        write_field(w, "params", &self.params)?;
        write_field(w, "description", &self.description)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<ExportedFunction> {
        read_record_of(r, 4, "exported function")?;
        Ok(ExportedFunction {
            name: read_field(r, "name")?,
            returns: read_field(r, "returns")?,
            params: read_field(r, "params")?,
            description: read_field(r, "description")?,
        })
    }
}

impl Marshal for ServiceLink {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        fn end(e: &LinkEnd) -> (String, &String) {
            match e {
                LinkEnd::Coalition(n) => ("coalition".to_owned(), n),
                LinkEnd::Database(n) => ("database".to_owned(), n),
            }
        }
        let ((from_kind, from), (to_kind, to)) = (end(&self.from), end(&self.to));
        write_record(w, 5);
        write_field(w, "from_kind", &from_kind)?;
        write_field(w, "from", from)?;
        write_field(w, "to_kind", &to_kind)?;
        write_field(w, "to", to)?;
        write_field(w, "description", &self.description)
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<ServiceLink> {
        fn end(kind: String, name: String) -> WireResult<LinkEnd> {
            match kind.as_str() {
                "coalition" => Ok(LinkEnd::Coalition(name)),
                "database" => Ok(LinkEnd::Database(name)),
                _ => Err(WireError::Shape("link end kind")),
            }
        }
        read_record_of(r, 5, "service link")?;
        let from_kind = read_field(r, "from_kind")?;
        let from = end(from_kind, read_field(r, "from")?)?;
        let to_kind = read_field(r, "to_kind")?;
        Ok(ServiceLink {
            from,
            to: end(to_kind, read_field(r, "to")?)?,
            description: read_field(r, "description")?,
        })
    }
}

impl Marshal for DissolutionReport {
    fn write(&self, w: &mut CdrWriter) -> WireResult<()> {
        write_record(w, 3);
        write_field(w, "removed_coalitions", &self.removed_coalitions)?;
        write_field(w, "displaced_sources", &self.displaced_sources)?;
        write_field(w, "severed_links", &(self.severed_links as u32))
    }

    fn read(r: &mut CdrReader<'_>) -> WireResult<DissolutionReport> {
        read_record_of(r, 3, "dissolution report")?;
        Ok(DissolutionReport {
            removed_coalitions: read_field(r, "removed_coalitions")?,
            displaced_sources: read_field(r, "displaced_sources")?,
            severed_links: read_field::<u32>(r, "severed_links")? as usize,
        })
    }
}
