//! Integration: the detector's public data types (reports, provenance
//! traces, labels, configs, price tables) implement `serde::Serialize`
//! end to end, so
//! downstream tooling (dashboards, archives) can consume them with any
//! serde format crate. No format crate is in the approved offline
//! dependency set, so the check drives each value through a minimal
//! counting `Serializer` — which exercises every derived implementation
//! without committing to a wire format.

use leishen::{DetectorConfig, LeiShen};
use leishen_scenarios::attacks::all_attacks;
use leishen_scenarios::World;

/// A serializer that counts emitted primitive values and fails never:
/// driving a value through it proves the whole `Serialize` tree works.
struct CountingSink(usize);

impl serde::Serializer for &mut CountingSink {
    type Ok = ();
    type Error = std::fmt::Error;
    type SerializeSeq = Self;
    type SerializeTuple = Self;
    type SerializeTupleStruct = Self;
    type SerializeTupleVariant = Self;
    type SerializeMap = Self;
    type SerializeStruct = Self;
    type SerializeStructVariant = Self;

    fn serialize_bool(self, _: bool) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_i8(self, _: i8) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_i16(self, _: i16) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_i32(self, _: i32) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_i64(self, _: i64) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_i128(self, _: i128) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_u8(self, _: u8) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_u16(self, _: u16) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_u32(self, _: u32) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_u64(self, _: u64) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_u128(self, _: u128) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_f32(self, _: f32) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_f64(self, _: f64) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_char(self, _: char) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_str(self, _: &str) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_bytes(self, _: &[u8]) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_none(self) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_some<T: serde::Serialize + ?Sized>(self, v: &T) -> Result<(), Self::Error> {
        v.serialize(&mut *self)
    }
    fn serialize_unit(self) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_unit_struct(self, _: &'static str) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
    ) -> Result<(), Self::Error> {
        self.0 += 1;
        Ok(())
    }
    fn serialize_newtype_struct<T: serde::Serialize + ?Sized>(
        self,
        _: &'static str,
        v: &T,
    ) -> Result<(), Self::Error> {
        v.serialize(&mut *self)
    }
    fn serialize_newtype_variant<T: serde::Serialize + ?Sized>(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        v: &T,
    ) -> Result<(), Self::Error> {
        v.serialize(&mut *self)
    }
    fn serialize_seq(self, _: Option<usize>) -> Result<Self::SerializeSeq, Self::Error> {
        Ok(self)
    }
    fn serialize_tuple(self, _: usize) -> Result<Self::SerializeTuple, Self::Error> {
        Ok(self)
    }
    fn serialize_tuple_struct(
        self,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeTupleStruct, Self::Error> {
        Ok(self)
    }
    fn serialize_tuple_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeTupleVariant, Self::Error> {
        Ok(self)
    }
    fn serialize_map(self, _: Option<usize>) -> Result<Self::SerializeMap, Self::Error> {
        Ok(self)
    }
    fn serialize_struct(
        self,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeStruct, Self::Error> {
        Ok(self)
    }
    fn serialize_struct_variant(
        self,
        _: &'static str,
        _: u32,
        _: &'static str,
        _: usize,
    ) -> Result<Self::SerializeStructVariant, Self::Error> {
        Ok(self)
    }
}

macro_rules! impl_compound {
    ($trait:path, $($fn:ident $(, $key:ident)? );+) => {
        impl $trait for &mut CountingSink {
            type Ok = ();
            type Error = std::fmt::Error;
            $(
                impl_compound!(@method $fn $(, $key)?);
            )+
            fn end(self) -> Result<(), Self::Error> { Ok(()) }
        }
    };
    (@method $fn:ident) => {
        fn $fn<T: serde::Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Self::Error> {
            v.serialize(&mut **self)
        }
    };
    (@method $fn:ident, keyed) => {
        fn $fn<T: serde::Serialize + ?Sized>(
            &mut self,
            _key: &'static str,
            v: &T,
        ) -> Result<(), Self::Error> {
            v.serialize(&mut **self)
        }
    };
}

impl_compound!(serde::ser::SerializeSeq, serialize_element);
impl_compound!(serde::ser::SerializeTuple, serialize_element);
impl_compound!(serde::ser::SerializeTupleStruct, serialize_field);
impl_compound!(serde::ser::SerializeTupleVariant, serialize_field);
impl_compound!(serde::ser::SerializeStruct, serialize_field, keyed);
impl_compound!(serde::ser::SerializeStructVariant, serialize_field, keyed);

impl serde::ser::SerializeMap for &mut CountingSink {
    type Ok = ();
    type Error = std::fmt::Error;
    fn serialize_key<T: serde::Serialize + ?Sized>(&mut self, k: &T) -> Result<(), Self::Error> {
        k.serialize(&mut **self)
    }
    fn serialize_value<T: serde::Serialize + ?Sized>(&mut self, v: &T) -> Result<(), Self::Error> {
        v.serialize(&mut **self)
    }
    fn end(self) -> Result<(), Self::Error> {
        Ok(())
    }
}

fn serializes<T: serde::Serialize>(value: &T) -> usize {
    let mut sink = CountingSink(0);
    value.serialize(&mut sink).expect("serialization succeeds");
    sink.0
}

#[test]
fn detector_outputs_are_serializable() {
    let mut world = World::new();
    let attack = all_attacks()[0](&mut world); // bZx-1
    let labels = world.detector_labels();
    let view = world.view(&labels);
    let record = world.chain.replay(attack.tx).expect("recorded");
    let report = LeiShen::new(DetectorConfig::paper())
        .detect(record, &view, Some(&world.prices))
        .expect("detected");

    assert!(serializes(&report) > 10, "AttackReport serializes");
    assert!(serializes(record) > 10, "TxRecord serializes");

    // The report with a forensics exit analysis attached.
    let cluster: std::collections::HashSet<_> =
        [attack.attacker, attack.contract].into_iter().collect();
    let exits = leishen::trace_exits(
        &[record],
        &cluster,
        view.labels(),
        view.creations(),
        &["Tornado Cash"],
    );
    assert!(!exits.is_empty(), "bZx-1 moves funds out of the cluster");
    let with_exits = report.clone().with_exits(exits);
    assert!(
        serializes(&with_exits) > serializes(&report),
        "ExitReports add serialized fields"
    );

    // A full provenance trace from the flight recorder.
    let recorder = leishen::FlightRecorder::new();
    let engine = leishen::ScanEngine::new(1);
    let cache = leishen::TagCache::new();
    engine.scan_instrumented(
        &LeiShen::new(DetectorConfig::paper()),
        &[record],
        &view,
        &cache,
        &leishen::NoopSink,
        &recorder,
    );
    let trace = recorder.find(record.id).expect("trace recorded");
    assert!(trace.decision.flagged, "bZx-1 is detected");
    assert!(
        serializes(&trace) > 20,
        "TxProvenance (spans + events + decision) serializes"
    );
    assert!(serializes(&labels) > 0, "Labels serialize");
    assert!(serializes(&DetectorConfig::paper()) > 0, "config serializes");
    assert!(
        serializes(&world.prices) > 0,
        "UsdPriceTable serializes for archival"
    );
}
