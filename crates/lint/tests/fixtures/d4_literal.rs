pub const QUERIES: &str = "spotlake_store_queries_total";
