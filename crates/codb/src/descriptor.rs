//! Information-source descriptors — the advertisement format of §2.2.
//!
//! The paper's running example:
//!
//! ```text
//! Information Source Royal Brisbane Hospital {
//!   Information Type  "Research and Medical"
//!   Documentation     "http://www.medicine.uq.edu.au/RBH"
//!   Location          "dba.icis.qut.edu.au"
//!   Wrapper           "dba.icis.qut.edu.au/WebTassiliOracle"
//!   Interface         ResearchProjects, PatientHistory
//! }
//! ```

use std::fmt;

/// One exported access function, e.g. the paper's
/// `function real Funding(ResearchProjects.Title x, Predicate(x))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedFunction {
    /// Function name.
    pub name: String,
    /// Parameter descriptions (display form, e.g. `"string Patient.Name"`).
    pub params: Vec<String>,
    /// Return type (display form, e.g. `"real"`).
    pub returns: String,
    /// What the routine does.
    pub description: String,
}

/// One exported type in a source's interface, e.g. `PatientHistory`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExportedType {
    /// Type name.
    pub name: String,
    /// Exported attributes as `(display type, qualified name)` pairs,
    /// e.g. `("string", "Patient.Name")`.
    pub attributes: Vec<(String, String)>,
    /// Exported access functions.
    pub functions: Vec<ExportedFunction>,
    /// Textual description of the type.
    pub description: String,
}

impl ExportedType {
    /// Render in the paper's `Type X { … }` display form.
    pub fn render(&self) -> String {
        let mut out = format!("Type {} {{\n", self.name);
        for (ty, name) in &self.attributes {
            out.push_str(&format!("  attribute {ty} {name};\n"));
        }
        for f in &self.functions {
            out.push_str(&format!(
                "  function {} {}({});\n",
                f.returns,
                f.name,
                f.params.join(", ")
            ));
        }
        out.push('}');
        out
    }
}

/// A complete information-source advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InformationSource {
    /// Source (database) name, e.g. `"Royal Brisbane Hospital"`.
    pub name: String,
    /// Advertised information type, e.g. `"Research and Medical"`.
    pub information_type: String,
    /// Documentation URL (multimedia file or demo program in the paper).
    pub documentation_url: String,
    /// Host location of the database.
    pub location: String,
    /// Wrapper address (program giving access to the data).
    pub wrapper: String,
    /// Exported interface.
    pub interface: Vec<ExportedType>,
}

impl InformationSource {
    /// The exported type names (the `Interface` line of the ad).
    pub fn interface_names(&self) -> Vec<String> {
        self.interface.iter().map(|t| t.name.clone()).collect()
    }
}

impl fmt::Display for InformationSource {
    /// Renders in the paper's advertisement syntax.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Information Source {} {{", self.name)?;
        writeln!(f, "  Information Type \"{}\"", self.information_type)?;
        writeln!(f, "  Documentation \"{}\"", self.documentation_url)?;
        writeln!(f, "  Location \"{}\"", self.location)?;
        writeln!(f, "  Wrapper \"{}\"", self.wrapper)?;
        writeln!(f, "  Interface {}", self.interface_names().join(", "))?;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rbh() -> InformationSource {
        InformationSource {
            name: "Royal Brisbane Hospital".into(),
            information_type: "Research and Medical".into(),
            documentation_url: "http://www.medicine.uq.edu.au/RBH".into(),
            location: "dba.icis.qut.edu.au".into(),
            wrapper: "dba.icis.qut.edu.au/WebTassiliOracle".into(),
            interface: vec![
                ExportedType {
                    name: "ResearchProjects".into(),
                    attributes: vec![
                        ("String".into(), "ResearchProjects.Title".into()),
                        ("string".into(), "ResearchProjects.keywords".into()),
                    ],
                    functions: vec![ExportedFunction {
                        name: "Funding".into(),
                        params: vec!["ResearchProjects.Title x".into(), "Predicate(x)".into()],
                        returns: "real".into(),
                        description: "returns the budget of a given research project".into(),
                    }],
                    description: "research projects".into(),
                },
                ExportedType {
                    name: "PatientHistory".into(),
                    attributes: vec![("string".into(), "Patient.Name".into())],
                    functions: vec![],
                    description: "patient histories".into(),
                },
            ],
        }
    }

    #[test]
    fn advertisement_renders_like_the_paper() {
        let text = rbh().to_string();
        assert!(text.starts_with("Information Source Royal Brisbane Hospital {"));
        assert!(text.contains("Information Type \"Research and Medical\""));
        assert!(text.contains("Wrapper \"dba.icis.qut.edu.au/WebTassiliOracle\""));
        assert!(text.contains("Interface ResearchProjects, PatientHistory"));
    }

    #[test]
    fn type_rendering() {
        let src = rbh();
        let t = &src.interface[0];
        let r = t.render();
        assert!(r.starts_with("Type ResearchProjects {"));
        assert!(r.contains("attribute String ResearchProjects.Title;"));
        assert!(r.contains("function real Funding(ResearchProjects.Title x, Predicate(x));"));
    }

    #[test]
    fn interface_lookup() {
        let src = rbh();
        assert_eq!(
            src.interface_names(),
            vec!["ResearchProjects", "PatientHistory"]
        );
    }
}
