ERROR: C back end: record types are not supported by the C back end
